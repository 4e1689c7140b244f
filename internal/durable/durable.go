// Package durable is the one place booterscope's crash-safe files are
// framed and published. Daemon checkpoints, incident dumps and flow
// segments share one envelope,
//
//	u32 len   — payload length, big endian
//	u32 crc   — IEEE CRC32 over the payload
//	payload
//
// and checkpoints, incident dumps and the flowstore manifest share one
// publish order: temp file → chunk-by-chunk writes → fsync → close →
// rename over the visible name → directory fsync. A reader of the
// visible name therefore sees the previous complete file or the new
// one, never a torn one. One policy for every publisher: the temp file
// is removed on every failure path, and a directory-fsync failure is
// returned, not swallowed — the rename happened but is not yet durable.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"booterscope/internal/chaos"
)

// headLen is the frame head: u32 len + u32 crc.
const headLen = 8

var (
	// errTorn marks a frame whose head or declared payload runs past
	// the end of the input.
	errTorn = errors.New("durable: torn frame")
	// errCRC marks a complete frame whose payload fails its checksum.
	errCRC = errors.New("durable: frame CRC mismatch")
)

// AppendFrame appends payload to dst in the envelope.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// Next parses the frame at the start of b without verifying it: the
// payload (a view into b), its stored CRC word, and what follows the
// frame. A b too short for the head or the declared payload is errTorn.
func Next(b []byte) (payload []byte, crc uint32, rest []byte, err error) {
	if len(b) < headLen {
		return nil, 0, nil, errTorn
	}
	n := uint64(binary.BigEndian.Uint32(b))
	if n > uint64(len(b)-headLen) {
		return nil, 0, nil, errTorn
	}
	end := headLen + int(n)
	return b[headLen:end], binary.BigEndian.Uint32(b[4:]), b[end:], nil
}

// check verifies a payload against its stored CRC word.
func check(payload []byte, crc uint32) error {
	if crc32.ChecksumIEEE(payload) != crc {
		return errCRC
	}
	return nil
}

// Walk calls fn with every frame of b in order — off is the frame's
// offset in b — after verifying its CRC. It stops at the first torn or
// corrupt frame (errTorn or errCRC, wrapped with the offset) or the
// first error fn returns (unchanged).
func Walk(b []byte, fn func(off int, payload []byte) error) error {
	for off := 0; off < len(b); {
		payload, crc, _, err := Next(b[off:])
		if err == nil {
			err = check(payload, crc)
		}
		if err != nil {
			return fmt.Errorf("%w at offset %d", err, off)
		}
		if err := fn(off, payload); err != nil {
			return err
		}
		off += headLen + len(payload)
	}
	return nil
}

// Frames cuts an encoded file — prefix bytes of magic, then frames —
// into the chunks Publish writes one operation each: the magic, then
// one chunk per frame, the granularity a real crash tears files at.
// Bytes that do not parse as a frame stay in the last chunk; nothing
// is dropped.
func Frames(enc []byte, prefix int) [][]byte {
	chunks := [][]byte{enc[:prefix]}
	for rest := enc[prefix:]; len(rest) > 0; {
		payload, _, after, err := Next(rest)
		if err != nil {
			return append(chunks, rest)
		}
		chunks = append(chunks, rest[:headLen+len(payload)])
		rest = after
	}
	return chunks
}

// Publish atomically replaces path with the concatenation of chunks,
// staged in tmp (same directory). Every write, the fsync and the
// rename first ask fault under "<op> write", "<op> fsync" and
// "<op> rename", so a chaos suite can kill the publisher at each step;
// a nil fault never fires. On any error up to and including the rename
// the file at path is untouched and tmp is removed.
func Publish(path, tmp string, chunks [][]byte, fault *chaos.Failpoint, op string) error {
	err := stage(tmp, chunks, fault, op)
	if err == nil {
		err = fault.Check(op + " rename")
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("syncing directory of %s: %w", path, err)
	}
	return nil
}

// stage writes chunks to a fresh tmp, fsyncs and closes it.
func stage(tmp string, chunks [][]byte, fault *chaos.Failpoint, op string) error {
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	for _, c := range chunks {
		if err = fault.Check(op + " write"); err != nil {
			break
		}
		if _, err = f.Write(c); err != nil {
			break
		}
	}
	if err == nil {
		err = fault.Check(op + " fsync")
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
