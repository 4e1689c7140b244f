// Package core is booterscope's top-level orchestration API: it wires
// the substrates (IXP fabric, booter engine, traffic scenario, domain
// observatory) into the studies the paper reports:
//
//   - NewSelfAttackStudy — Section 3: booter self-attacks against the
//     measurement AS (Table 1, Figure 1a-c);
//   - NewTakedownStudy — the traffic scenario of Sections 4 and 5.2,
//     written to a flowstore archive by WriteArchive;
//   - ReplayStudy (OpenReplay, or GenerateReplay to generate and open
//     in one step) — every traffic figure, computed from an archive:
//     NTP amplification in the wild (Figure 2a-c), and the seizure's
//     traffic effects (Figures 4 and 5 and the S5.2 robustness
//     ablation) from one Analyze pass per vantage point;
//   - NewDomainStudy — Section 5.1: booter domains before and after the
//     takedown (Figure 3).
//
// Every study takes an explicit seed and scale so results are
// deterministic and cheap configurations can run in tests.
package core

import "time"

// Defaults shared by the studies.
var (
	// StudyStart is the first day of the traffic measurement window
	// (Sep 30 2018, the start of the paper's 122-day series).
	StudyStart = time.Date(2018, 9, 30, 0, 0, 0, 0, time.UTC)
	// TakedownDate is the FBI seizure date.
	TakedownDate = time.Date(2018, 12, 19, 0, 0, 0, 0, time.UTC)
	// DomainStudyStart and DomainStudyEnd bound the DNS/HTTPS
	// observatory crawls (January 2018 – May 2019).
	DomainStudyStart = time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	DomainStudyEnd   = time.Date(2019, 5, 31, 0, 0, 0, 0, time.UTC)
	// SelfAttackStart anchors the self-attack measurement campaign
	// (April–September 2018).
	SelfAttackStart = time.Date(2018, 4, 10, 12, 0, 0, 0, time.UTC)
)

// Options configure a study.
type Options struct {
	// Seed drives all randomness; equal seeds give identical results.
	Seed uint64
	// Scale multiplies synthetic traffic volumes. 1.0 is the calibrated
	// default; tests use smaller values. Applies to the traffic
	// scenario.
	Scale float64
	// Days is the traffic window length (default 122, the paper's).
	Days int
	// Parallelism is the shard count GenerateReplay's analyses fan out
	// to on the batch pipeline (internal/pipe): 0 resolves to
	// runtime.NumCPU, 1 runs serially. Every aggregation merges exactly,
	// so results are byte-identical at any setting — this is the value
	// behind the studies' shared -parallelism flag.
	Parallelism int
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.Days == 0 {
		o.Days = 122
	}
	return o
}
