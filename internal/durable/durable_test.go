package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"booterscope/internal/chaos"
)

// FuzzWalk feeds the one frame parser every durable reader sits on
// arbitrary bytes. The committed seeds are real files minus their
// magic: a daemon checkpoint, an incident dump and a two-block flow
// segment, all written at commit aaa50f7.
func FuzzWalk(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, b []byte) {
		// Whatever the bytes, every payload handed out lies inside them.
		if payload, _, rest, err := Next(b); err == nil {
			if headLen+len(payload)+len(rest) != len(b) {
				t.Fatalf("Next: %d head + %d payload + %d rest != %d input", headLen, len(payload), len(rest), len(b))
			}
		} else if !errors.Is(err, errTorn) {
			t.Fatalf("Next: %v, want ErrTorn", err)
		}
		end := 0
		err := Walk(b, func(off int, payload []byte) error {
			if off != end || off+headLen+len(payload) > len(b) {
				t.Fatalf("Walk: frame at %d (+%d payload) after a frame ending at %d, input %d", off, len(payload), end, len(b))
			}
			if len(payload) > 0 && &payload[0] != &b[off+headLen] {
				t.Fatalf("Walk: payload at %d is not a view of the input", off)
			}
			end = off + headLen + len(payload)
			return nil
		})
		if err != nil && !errors.Is(err, errTorn) && !errors.Is(err, errCRC) {
			t.Fatalf("Walk: %v, want ErrTorn or ErrCRC", err)
		}
		if err == nil && end != len(b) {
			t.Fatalf("Walk accepted %d of %d bytes", end, len(b))
		}

		// Read the same bytes as payloads: they round-trip through the
		// envelope, Frames cuts the file where AppendFrame joined it, and
		// one flipped bit anywhere is reported.
		var want [][]byte
		enc := []byte("MAGIC")
		for rest := b; len(rest) > 0; {
			n := min(int(rest[0])%64, len(rest)-1)
			want = append(want, rest[1:1+n])
			enc = AppendFrame(enc, rest[1:1+n])
			rest = rest[1+n:]
		}
		var got [][]byte
		if err := Walk(enc[5:], func(_ int, p []byte) error { got = append(got, p); return nil }); err != nil {
			t.Fatalf("Walk(AppendFrame…): %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("round trip: %d frames, want %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("round trip: frame %d differs", i)
			}
		}
		chunks := Frames(enc, 5)
		if len(chunks) != 1+len(want) || !bytes.Equal(bytes.Join(chunks, nil), enc) {
			t.Fatalf("Frames: %d chunks for %d frames, or bytes lost", len(chunks), len(want))
		}
		if len(enc) > 5 {
			var h uint
			for _, c := range b {
				h = h*31 + uint(c)
			}
			bit := int(h % uint((len(enc)-5)*8))
			enc[5+bit/8] ^= 1 << (bit % 8)
			err := Walk(enc[5:], func(int, []byte) error { return nil })
			if !errors.Is(err, errTorn) && !errors.Is(err, errCRC) {
				t.Fatalf("bit %d flipped: Walk = %v, want ErrTorn or ErrCRC", bit, err)
			}
		}
	})
}

// TestPublish pins the publish order and the failure policy: the ops a
// failpoint sees are one write per chunk, fsync, rename; killing any of
// them leaves the previous file byte-identical and no temp file.
func TestPublish(t *testing.T) {
	dir := t.TempDir()
	path, tmp := filepath.Join(dir, "state"), filepath.Join(dir, "state.tmp")
	old := [][]byte{[]byte("old")}
	if err := Publish(path, tmp, old, nil, "x"); err != nil {
		t.Fatal(err)
	}
	chunks := [][]byte{[]byte("magic"), []byte("frame one"), []byte("frame two")}
	wantOps := []string{"x write", "x write", "x write", "x fsync", "x rename"}

	for k, op := range wantOps {
		err := Publish(path, tmp, chunks, chaos.NewFailpoint(uint64(k)), "x")
		if !errors.Is(err, chaos.ErrInjected) || !strings.Contains(err.Error(), op+" (op") {
			t.Fatalf("op %d: err = %v, want injected fault at %q", k, err, op)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != "old" {
			t.Fatalf("op %d (%s): published file = %q, %v — previous contents perturbed", k, op, got, err)
		}
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Fatalf("op %d (%s): temp file left behind (err=%v)", k, op, err)
		}
	}

	probe := chaos.NewFailpoint()
	if err := Publish(path, tmp, chunks, probe, "x"); err != nil {
		t.Fatal(err)
	}
	if got := probe.Ops(); got != uint64(len(wantOps)) {
		t.Fatalf("publish is %d fault-visible ops, want %d", got, len(wantOps))
	}
	if got, _ := os.ReadFile(path); string(got) != "magicframe oneframe two" {
		t.Fatalf("published %q", got)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp file survives a publish (err=%v)", err)
	}

	// A directory that cannot take the temp file surfaces an error (a
	// regular file in its place: permission bits do not stop root).
	notDir := filepath.Join(path, "state")
	if err := Publish(notDir, notDir+".tmp", chunks, nil, "x"); err == nil {
		t.Fatal("publish into a non-directory succeeded")
	}
	// The rename itself failing removes the temp file too.
	sub := filepath.Join(dir, "sub")
	if err := os.MkdirAll(filepath.Join(sub, "keep"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Publish(sub, tmp, chunks, nil, "x"); err == nil {
		t.Fatal("publish over a non-empty directory succeeded")
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind by a failed rename (err=%v)", err)
	}
}
