package trafficgen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"
	"time"

	"booterscope/internal/flow"
)

// digestViews restates core.DefaultFederation's three views as literals:
// core imports this package, so the test cannot call it.
var digestViews = []FederatedView{
	{Name: "ixp", Tier: "ixp", Visibility: 0.98, SamplingRate: 100},
	{Name: "tier1", Tier: "tier-1 isp", Visibility: 0.55, SamplingRate: 1000},
	{Name: "tier2", Tier: "tier-2 isp", Visibility: 0.30, SamplingRate: 1},
}

// Days 77–81 of the package's scenario span the takedown (day 80).
// Seed 42 is testScenario's seed and seed 17 the benchmark's; both were
// picked before their digests were taken. The window holds attacks of
// more than 1 000 sources at both seeds (checked below), so reflector
// permutations long enough to cross any internal buffer size are
// covered.
const digestFirstDay, digestLastDay = 77, 81

// digestGolden holds the SHA-256 of every field of every record each
// stream generates over the window, taken on the generator as it was
// before its buffers were rewritten. Never regenerate them: a change to
// the generator's output is a change to every figure.
var digestGolden = map[uint64]map[string]string{
	42: {
		"IXP":        "a92dd22491ba4edab4306c1ff58662b06b719ec2896e5d3b556bd9056afe9031",
		"tier-1 ISP": "5d9d31e43cfcf66235dab9fed0021717b1f8099b179e0ce162c3b31fba066690",
		"tier-2 ISP": "a3b57210ba850cc5f144a77ac59f4b2aa5b8e0f96f397144edd98760d81fa404",
		"fed union":  "1ad0eac289f8e387f2bea599b64c8109ad3ff4988a20aa8ff36847be7fb1df6b",
		"fed ixp":    "7cf95236e2f4d8880d5d67fc2b22828c58d6f3940dc14c134fbc05fbe82248a8",
		"fed tier1":  "1d14dea7091cf996c10cfea31f3c6fdf3b9da4bfcf0f76ed316cb2afdd39eadf",
		"fed tier2":  "e40f543e66669239e3a55da4040d49210bce36a762e5d83c0162625e3247f7b1",
	},
	17: {
		"IXP":        "adb18c72c9f6ee7715d2369dbc143749f6d1c49b19536d4a6f5675e7a82bf596",
		"tier-1 ISP": "4fb434d4b58cb463342795af43c446d1e91522440ec7773b920778cc10804db3",
		"tier-2 ISP": "9383f82b7746301fdf6352a6b5a520e0e87fad5e022f2e6f6921218cdf1172d1",
		"fed union":  "19fdfc9196ab361de02dda1d870d69973122f5075d5932cc25fa8cdda09d8447",
		"fed ixp":    "db9608af974eae71999e7c1e012f76c84cfa4bc830ae5468b1b005da4a4c7f27",
		"fed tier1":  "9bc8ac0daf6b7400974b361bb236427ecec6206a3f6b87060e64f2d55deed706",
		"fed tier2":  "d8e1eccdbc1c9faeb1b1a9e6cc2d0f897cee34c1c07d7f1bb04fd972c63c719e",
	},
}

// hashRecords writes every field of each record into h, preceded by
// the record count so that day boundaries are part of the digest.
func hashRecords(h hash.Hash, recs []flow.Record) {
	var buf []byte
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(recs)))
	for i := range recs {
		r := &recs[i]
		src, _ := r.Src.MarshalBinary()
		dst, _ := r.Dst.MarshalBinary()
		start, _ := r.Start.MarshalBinary()
		end, _ := r.End.MarshalBinary()
		for _, b := range [][]byte{src, dst, start, end} {
			buf = append(buf, byte(len(b)))
			buf = append(buf, b...)
		}
		buf = binary.LittleEndian.AppendUint16(buf, r.SrcPort)
		buf = binary.LittleEndian.AppendUint16(buf, r.DstPort)
		buf = append(buf, r.Protocol, byte(r.Direction))
		buf = binary.LittleEndian.AppendUint64(buf, r.Packets)
		buf = binary.LittleEndian.AppendUint64(buf, r.Bytes)
		buf = binary.LittleEndian.AppendUint32(buf, r.SrcAS)
		buf = binary.LittleEndian.AppendUint32(buf, r.DstAS)
		buf = binary.LittleEndian.AppendUint32(buf, r.SamplingRate)
		h.Write(buf)
		buf = buf[:0]
	}
	h.Write(buf)
}

// maxFanOut is the largest number of port-123 records sharing one
// destination and start minute: an attack's source count, as far as
// the stream shows it.
func maxFanOut(recs []flow.Record) int {
	type key struct {
		dst   [16]byte
		start int64
	}
	n := make(map[key]int)
	best := 0
	for i := range recs {
		r := &recs[i]
		if r.SrcPort != 123 {
			continue
		}
		k := key{r.Dst.As16(), r.Start.Truncate(time.Minute).Unix()}
		n[k]++
		best = max(best, n[k])
	}
	return best
}

// scenarioDigests hashes the window's streams of one seed at full scale.
func scenarioDigests(seed uint64) (digests map[string]string, fanOut int) {
	s := NewScenario(Config{Start: scnStart, Days: 122, Takedown: takedown, Seed: seed, Scale: 1})
	streams := map[string]hash.Hash{}
	add := func(name string, recs []flow.Record) {
		h, ok := streams[name]
		if !ok {
			h = sha256.New()
			streams[name] = h
		}
		hashRecords(h, recs)
		fanOut = max(fanOut, maxFanOut(recs))
	}
	for d := digestFirstDay; d <= digestLastDay; d++ {
		for _, k := range []Kind{KindIXP, KindTier1, KindTier2} {
			add(k.String(), s.Day(k, d))
		}
		union, perView := s.FederatedDay(d, digestViews)
		add("fed union", union)
		for i, v := range digestViews {
			add("fed "+v.Name, perView[i])
		}
	}
	digests = make(map[string]string, len(streams))
	for name, h := range streams {
		digests[name] = hex.EncodeToString(h.Sum(nil))
	}
	return digests, fanOut
}

// TestScenarioDigestGolden pins every record Day and FederatedDay
// produce, field by field, to digests frozen before the generator's
// buffers were rewritten: any change to the draws, their order or the
// copying shows here.
func TestScenarioDigestGolden(t *testing.T) {
	for seed, want := range digestGolden {
		got, fanOut := scenarioDigests(seed)
		if fanOut <= 1000 {
			t.Errorf("seed %d: largest attack has %d sources, want > 1000", seed, fanOut)
		}
		for name, g := range got {
			if want[name] != g {
				t.Errorf("seed %d %s: digest %s, want %s", seed, name, g, want[name])
			}
		}
		if len(want) != len(got) {
			t.Errorf("seed %d: %d streams, want %d", seed, len(got), len(want))
		}
	}
}
