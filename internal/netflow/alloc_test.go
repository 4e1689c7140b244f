package netflow

import (
	"net/netip"
	"testing"
	"time"

	"booterscope/internal/flow"
)

// TestDecodeV9Allocations pins DecodeV9 to one allocation for a packet
// with one data flowset, whatever its record count: the result is grown
// once for the flowset and filled in place.
func TestDecodeV9Allocations(t *testing.T) {
	now := time.Date(2018, 12, 19, 12, 0, 0, 0, time.UTC)
	e := &V9Exporter{SourceID: 1, BootTime: now.Add(-time.Hour), TemplateRefresh: 1 << 20}
	recs := make([]flow.Record, 32)
	for i := range recs {
		recs[i] = flow.Record{
			Key: flow.Key{
				Src: netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}), Dst: netip.AddrFrom4([4]byte{10, 0, 1, 1}),
				SrcPort: 123, Protocol: 17,
			},
			Packets: 1, Bytes: 500, Start: now.Add(-time.Minute), End: now,
		}
	}
	c := NewV9Collector()
	withTemplate, err := e.EncodeV9(recs, now)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DecodeV9(withTemplate); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 32} {
		pkt, err := e.EncodeV9(recs[:n], now)
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(100, func() {
			if out, err := c.DecodeV9(pkt); err != nil || len(out) != n {
				t.Fatalf("DecodeV9 = %d records, %v; want %d", len(out), err, n)
			}
		})
		if got != 1 {
			t.Errorf("DecodeV9 of a %d-record packet allocates %v times, want 1", n, got)
		}
	}
}
