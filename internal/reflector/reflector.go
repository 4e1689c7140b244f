// Package reflector models the pools of abusable amplifiers (open NTP
// servers, resolvers, memcached instances) that booter services draw on.
//
// The study's Figure 1(c) observations drive the model: a booter holds a
// small working set (hundreds) out of a huge global universe (millions of
// potential NTP amplifiers), reuses the same set for same-day attacks,
// churns it moderately (~30 % over two weeks), occasionally swaps it out
// entirely overnight, and partially shares reflectors with other booters.
package reflector

import (
	"fmt"
	"net/netip"
	"sort"

	"booterscope/internal/amplify"
	"booterscope/internal/netutil"
)

// Reflector is one abusable amplifier.
type Reflector struct {
	Addr netip.Addr
	// AS is the origin AS announcing the reflector's prefix.
	AS uint32
}

// Pool is the global universe of amplifiers for one protocol, spread
// across origin ASes with a heavy-tailed distribution (a few hosting
// networks run many amplifiers).
type Pool struct {
	vector   amplify.Vector
	universe []Reflector
}

// NewPool synthesizes a universe of size amplifiers spread over asCount
// origin ASes. The same seed always yields the same universe.
func NewPool(vector amplify.Vector, size, asCount int, seed uint64) *Pool {
	if size < 1 {
		size = 1
	}
	if asCount < 1 {
		asCount = 1
	}
	r := netutil.NewRand(seed).Fork(fmt.Sprintf("pool-%s", vector))
	universe := make([]Reflector, size)
	seen := make(map[netip.Addr]bool, size)
	for i := range universe {
		// Skewed AS assignment: low-index ASes (big hosting networks)
		// run disproportionately many amplifiers. The cubic transform
		// puts ~(1/asCount)^(1/3) of the universe in the top AS while
		// keeping a long tail of small origins.
		u := r.Float64()
		asIdx := int(float64(asCount) * u * u * u)
		if asIdx >= asCount {
			asIdx = asCount - 1
		}
		var addr netip.Addr
		for {
			// Public-ish space, avoiding 0/8 and 10/8.
			addr = netutil.Addr4(uint32(11+r.IntN(200))<<24 | uint32(r.Uint32N(1<<24)))
			if !seen[addr] {
				seen[addr] = true
				break
			}
		}
		universe[i] = Reflector{Addr: addr, AS: uint32(1000 + asIdx)}
	}
	return &Pool{vector: vector, universe: universe}
}

// Vector reports the pool's protocol.
func (p *Pool) Vector() amplify.Vector { return p.vector }

// Size reports the universe size.
func (p *Pool) Size() int { return len(p.universe) }

// sample draws n distinct reflectors (indices) from the universe.
func (p *Pool) sample(r *netutil.Rand, n int) []Reflector {
	if n > len(p.universe) {
		n = len(p.universe)
	}
	// Partial Fisher-Yates over an index view.
	idx := make([]int, len(p.universe))
	for i := range idx {
		idx[i] = i
	}
	out := make([]Reflector, n)
	for i := 0; i < n; i++ {
		j := i + r.IntN(len(idx)-i)
		idx[i], idx[j] = idx[j], idx[i]
		out[i] = p.universe[idx[i]]
	}
	return out
}

// WorkingSet is the set of reflectors a booter currently uses for one
// protocol.
type WorkingSet struct {
	pool *Pool
	r    *netutil.Rand
	cur  []Reflector
	// DailyChurn is the fraction of the set replaced per day of Advance.
	// The default 0.025/day yields ~30 % churn over two weeks, matching
	// the paper's observation (1).
	DailyChurn float64
}

// NewWorkingSet draws an initial working set of size n for a booter.
// name keys the randomness so different booters using the same pool get
// different (but potentially overlapping) sets — the paper's observation
// (4).
func NewWorkingSet(pool *Pool, name string, n int, seed uint64) *WorkingSet {
	r := netutil.NewRand(seed).Fork("ws-" + name)
	return &WorkingSet{
		pool:       pool,
		r:          r,
		cur:        pool.sample(r, n),
		DailyChurn: 0.025,
	}
}

// Size reports the working set size.
func (w *WorkingSet) Size() int { return len(w.cur) }

// Advance ages the working set by days, replacing ~DailyChurn of the set
// per day with fresh draws from the universe.
func (w *WorkingSet) Advance(days float64) {
	if days <= 0 || len(w.cur) == 0 {
		return
	}
	target := len(w.cur)
	// Each member independently survives with (1-churn)^days.
	survive := pow1m(w.DailyChurn, days)
	kept := make([]Reflector, 0, target)
	inSet := make(map[netip.Addr]bool, target)
	for _, ref := range w.cur {
		if w.r.Float64() < survive {
			kept = append(kept, ref)
			inSet[ref.Addr] = true
		}
	}
	// Refill from the universe, skipping reflectors already kept. The
	// universe dwarfs the working set, so a few rounds always suffice.
	for attempts := 0; len(kept) < target && attempts < 16; attempts++ {
		for _, ref := range w.pool.sample(w.r, target-len(kept)) {
			if !inSet[ref.Addr] {
				kept = append(kept, ref)
				inSet[ref.Addr] = true
			}
		}
	}
	w.cur = kept
}

// Swap replaces the entire working set overnight — the sudden set change
// the paper observed for booter B between consecutive days.
func (w *WorkingSet) Swap() {
	w.cur = w.pool.sample(w.r, len(w.cur))
}

// Select returns up to n reflectors from the current working set for one
// attack. If n exceeds the set size the whole set is used.
func (w *WorkingSet) Select(n int) []Reflector {
	if n >= len(w.cur) {
		out := make([]Reflector, len(w.cur))
		copy(out, w.cur)
		return out
	}
	// Deterministic draw without replacement from the current set.
	idx := w.r.Perm(len(w.cur))[:n]
	sort.Ints(idx)
	out := make([]Reflector, n)
	for i, j := range idx {
		out[i] = w.cur[j]
	}
	return out
}

// pow1m computes (1-x)^days without importing math for tiny helpers.
func pow1m(x, days float64) float64 {
	// days is small (<=60 in practice); iterate integer part, then a
	// linear blend for the fraction.
	result := 1.0
	whole := int(days)
	for i := 0; i < whole; i++ {
		result *= 1 - x
	}
	frac := days - float64(whole)
	if frac > 0 {
		result *= 1 - x*frac
	}
	return result
}

// Overlap returns the Jaccard index of two reflector sets: |A∩B|/|A∪B|.
//
//bsvet:allow deadcode oracle: the booter tests TestSameDayAttacksShareReflectors and TestChurnAndSwap measure reflector reuse with it
func Overlap(a, b []Reflector) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inA := make(map[netip.Addr]bool, len(a))
	for _, r := range a {
		inA[r.Addr] = true
	}
	inter := 0
	union := len(inA)
	seenB := make(map[netip.Addr]bool, len(b))
	for _, r := range b {
		if seenB[r.Addr] {
			continue
		}
		seenB[r.Addr] = true
		if inA[r.Addr] {
			inter++
		} else {
			union++
		}
	}
	return float64(inter) / float64(union)
}

// OverlapMatrix computes the pairwise Jaccard overlap of several
// reflector sets — the data behind Figure 1(c).
func OverlapMatrix(sets [][]Reflector) [][]float64 {
	n := len(sets)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			m[i][j] = Overlap(sets[i], sets[j])
		}
	}
	return m
}

// UniqueAddrs counts distinct reflector addresses across sets (the
// paper's "in total 868 reflectors" figure).
func UniqueAddrs(sets [][]Reflector) int {
	seen := make(map[netip.Addr]bool)
	for _, set := range sets {
		for _, r := range set {
			seen[r.Addr] = true
		}
	}
	return len(seen)
}

// UniqueASes counts distinct origin ASes in a set (the paper's "peer
// ASes handing over traffic" dimension).
//
//bsvet:allow deadcode oracle: TestCLDAPUsesManyMoreReflectors counts the reflector ASes an attack uses
func UniqueASes(set []Reflector) int {
	seen := make(map[uint32]bool)
	for _, r := range set {
		seen[r.AS] = true
	}
	return len(seen)
}
