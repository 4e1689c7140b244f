package core

import (
	"booterscope/internal/classify"
	"booterscope/internal/pipe"
	"booterscope/internal/stats"
	"booterscope/internal/takedown"
	"booterscope/internal/trafficgen"
)

// PacketSizeDistribution is the Figure 2(a) data: the NTP packet size
// histogram at the IXP with its below-200-byte share.
type PacketSizeDistribution struct {
	Histogram *stats.Histogram
	// FractionBelow200 is the benign share (the paper measured 54 %).
	FractionBelow200 float64
}

// histStage accumulates one worker's NTP packet size histogram. Bin
// counts are integer adds, so the worker merge is exact under any
// split and delivery order.
type histStage struct {
	into *stats.Histogram
	h    *stats.Histogram
}

func newHistStage(into *stats.Histogram) *histStage {
	return &histStage{into: into, h: stats.NewHistogram(0, 1500, 75)}
}

// Process implements pipe.Stage.
func (s *histStage) Process(b *pipe.Batch) error {
	if c := b.Cols; c != nil {
		for i, n := 0, c.Len(); i < n; i++ {
			if c.SrcPort[i] != classify.NTPPort && c.DstPort[i] != classify.NTPPort {
				continue
			}
			size := c.AvgPacketSize(i)
			for p := uint64(0); p < c.ScaledPackets(i); p += 10000 {
				s.h.Add(size)
			}
		}
		return nil
	}
	for i := range b.Recs {
		rec := &b.Recs[i]
		if rec.SrcPort != classify.NTPPort && rec.DstPort != classify.NTPPort {
			continue
		}
		size := rec.AvgPacketSize()
		for p := uint64(0); p < rec.ScaledPackets(); p += 10000 {
			// Add in sampled strides to bound cost; the histogram
			// is a distribution, absolute counts do not matter.
			s.h.Add(size)
		}
	}
	return nil
}

// Close implements pipe.Stage: the exact worker merge.
func (s *histStage) Close() error {
	s.into.Merge(s.h)
	return nil
}

// figure2aSource accumulates the packet size distribution from any
// record stream — live generation or a flowstore replay — on par
// workers. Histogram adds are commutative, so the result is independent
// of record order and worker count.
func figure2aSource(sc takedown.Scanner, par int) (*PacketSizeDistribution, error) {
	h := stats.NewHistogram(0, 1500, 75) // 20-byte bins
	err := takedown.Run(sc, par, func() pipe.Stage { return newHistStage(h) })
	if err != nil {
		return nil, err
	}
	return &PacketSizeDistribution{
		Histogram:        h,
		FractionBelow200: h.FractionBelow(classify.OptimisticSizeThreshold),
	}, nil
}

// VantageVictims is the Figure 2(b)/(c) data for one vantage point.
type VantageVictims struct {
	Vantage trafficgen.Kind
	// Victims is the optimistic per-destination view.
	Victims []classify.Victim
	// Filter quantifies the conservative rules.
	Filter classify.FilterStats
	// SourcesCDF and RateCDF are the Figure 2(c) curves.
	SourcesCDF *stats.ECDF
	RateCDF    *stats.ECDF
}

// MaxGbps returns the largest observed per-victim rate.
func (v *VantageVictims) MaxGbps() float64 {
	var max float64
	for _, vic := range v.Victims {
		if vic.MaxGbps > max {
			max = vic.MaxGbps
		}
	}
	return max
}

// classifyStage accumulates one worker's victim classification. A
// victim's records may reach several workers (a replay splits by day);
// the merge in Close fuses their (victim, minute) bins and per-victim
// source sets exactly.
type classifyStage struct {
	into *classify.Classifier
	c    *classify.Classifier
}

func newClassifyStage(into *classify.Classifier) *classifyStage {
	return &classifyStage{into: into, c: classify.New(classify.Config{})}
}

// Process implements pipe.Stage. Columnar batches run the classifier
// filter on the columns and materialize only the records that pass.
func (s *classifyStage) Process(b *pipe.Batch) error {
	if cols := b.Cols; cols != nil {
		for i, n := 0, cols.Len(); i < n; i++ {
			s.c.AddCols(cols, i)
		}
		return nil
	}
	for i := range b.Recs {
		s.c.Add(&b.Recs[i])
	}
	return nil
}

// Close implements pipe.Stage: the exact worker merge.
func (s *classifyStage) Close() error {
	s.into.Merge(s.c)
	return nil
}

// figure2bcSource classifies victims from any record stream on par
// workers. The classifier's merge is exact for any split of the
// records and the victim sort breaks ties by address, so any delivery
// order over the same record multiset yields identical results.
func figure2bcSource(sc takedown.Scanner, k trafficgen.Kind, par int) (*VantageVictims, error) {
	c := classify.New(classify.Config{})
	if err := takedown.Run(sc, par, func() pipe.Stage { return newClassifyStage(c) }); err != nil {
		return nil, err
	}
	victims := c.Victims()
	sources := make([]float64, len(victims))
	rates := make([]float64, len(victims))
	for i, v := range victims {
		sources[i] = float64(v.MaxSources)
		rates[i] = v.MaxGbps
	}
	return &VantageVictims{
		Vantage:    k,
		Victims:    victims,
		Filter:     c.FilterStats(),
		SourcesCDF: stats.NewECDF(sources),
		RateCDF:    stats.NewECDF(rates),
	}, nil
}
