package takedown

import (
	"time"

	"booterscope/internal/amplify"
	"booterscope/internal/flow"
	"booterscope/internal/packet"
	"booterscope/internal/timeseries"
)

// specFigure4 states Figure 4's daily sums by brute force, for a window
// starting at a UTC midnight. A record toward a vector's reflectors
// (UDP to the vector's port) adds its scaled packets to the day of its
// whole start second: Start plus the whole days from Start to that
// second, counted toward zero in time.Duration arithmetic, so the
// sub-second part of a start never moves a record, the 86 399 seconds
// before Start are day 0, and a second beyond the ±292 years a
// Duration spans lands on the saturated day. A vector's series runs
// from its first to its last touched day; days in between that no
// record touched read 0.
func specFigure4(recs []flow.Record, w Window) map[amplify.Vector][]timeseries.Point {
	const day = 24 * time.Hour
	out := make(map[amplify.Vector][]timeseries.Point)
	for _, v := range ReflectorVectors {
		sums := make(map[int64]float64)
		first, last := int64(0), int64(0)
		for i := range recs {
			r := &recs[i]
			if r.Protocol != packet.IPProtoUDP || r.DstPort != v.Port() {
				continue
			}
			d := time.Unix(r.Start.Unix(), 0).Sub(w.Start)
			k := w.Start.Add(d - d%day).Unix()
			if len(sums) == 0 || k < first {
				first = k
			}
			if len(sums) == 0 || k > last {
				last = k
			}
			sums[k] += float64(r.ScaledPackets())
		}
		if len(sums) == 0 {
			continue
		}
		for k := first; k <= last; k += int64(day / time.Second) {
			out[v] = append(out[v], timeseries.Point{Time: time.Unix(k, 0).UTC(), Value: sums[k]})
		}
	}
	return out
}
