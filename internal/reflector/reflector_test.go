package reflector

import (
	"math"
	"net/netip"
	"testing"

	"booterscope/internal/amplify"
)

func TestPoolDeterministic(t *testing.T) {
	a := NewPool(amplify.NTP, 1000, 50, 42)
	b := NewPool(amplify.NTP, 1000, 50, 42)
	if a.Size() != 1000 || b.Size() != 1000 {
		t.Fatalf("sizes = %d/%d", a.Size(), b.Size())
	}
	wsA := NewWorkingSet(a, "x", 100, 1)
	wsB := NewWorkingSet(b, "x", 100, 1)
	if Overlap(wsA.cur, wsB.cur) != 1 {
		t.Error("same seeds should produce identical working sets")
	}
}

func TestPoolUniqueAddresses(t *testing.T) {
	p := NewPool(amplify.NTP, 5000, 100, 7)
	seen := make(map[netip.Addr]bool)
	for _, ref := range p.universe {
		if seen[ref.Addr] {
			t.Fatalf("duplicate reflector address %v", ref.Addr)
		}
		seen[ref.Addr] = true
		if ref.AS < 1000 || ref.AS >= 1100 {
			t.Fatalf("AS %d outside expected range", ref.AS)
		}
	}
}

func TestPoolHeavyTailedASes(t *testing.T) {
	p := NewPool(amplify.NTP, 10000, 200, 9)
	counts := make(map[uint32]int)
	for _, ref := range p.universe {
		counts[ref.AS]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	mean := float64(p.Size()) / float64(len(counts))
	if float64(max) < 3*mean {
		t.Errorf("largest AS hosts %d amplifiers, mean %.0f — distribution not heavy-tailed", max, mean)
	}
}

func TestWorkingSetStableWithinDay(t *testing.T) {
	p := NewPool(amplify.NTP, 10000, 100, 3)
	ws := NewWorkingSet(p, "boaterB", 500, 3)
	a := append([]Reflector(nil), ws.cur...)
	ws.Select(100) // a same-day attack
	b := ws.cur
	if Overlap(a, b) != 1 {
		t.Error("same-day working set must be identical (paper observation 3)")
	}
}

func TestWorkingSetChurnRate(t *testing.T) {
	p := NewPool(amplify.NTP, 100000, 100, 4)
	ws := NewWorkingSet(p, "boaterB", 1000, 4)
	before := append([]Reflector(nil), ws.cur...)
	ws.Advance(14) // two weeks
	after := ws.cur
	if len(after) != 1000 {
		t.Fatalf("set size changed: %d", len(after))
	}
	ov := Overlap(before, after)
	// (1-0.025)^14 ~ 0.70 survive; Jaccard of 70% retained ~ 0.70/1.30 ~ 0.54.
	// The paper's "30% churn over two weeks" speaks of member turnover:
	// check retained fraction instead of Jaccard.
	inBefore := make(map[netip.Addr]bool)
	for _, r := range before {
		inBefore[r.Addr] = true
	}
	retained := 0
	for _, r := range after {
		if inBefore[r.Addr] {
			retained++
		}
	}
	frac := float64(retained) / 1000
	if math.Abs(frac-0.70) > 0.06 {
		t.Errorf("retained fraction = %.3f, want ~0.70", frac)
	}
	if ov >= 1 {
		t.Error("two-week-aged set should differ")
	}
}

func TestWorkingSetSwap(t *testing.T) {
	p := NewPool(amplify.NTP, 100000, 100, 5)
	ws := NewWorkingSet(p, "boaterB", 500, 5)
	before := append([]Reflector(nil), ws.cur...)
	ws.Swap()
	after := ws.cur
	if len(after) != 500 {
		t.Fatalf("size after swap = %d", len(after))
	}
	if ov := Overlap(before, after); ov > 0.05 {
		t.Errorf("overlap after swap = %.3f, want near 0", ov)
	}
}

func TestWorkingSetSelect(t *testing.T) {
	p := NewPool(amplify.NTP, 10000, 100, 6)
	ws := NewWorkingSet(p, "boaterA", 300, 6)
	sel := ws.Select(100)
	if len(sel) != 100 {
		t.Fatalf("selected %d", len(sel))
	}
	// All selected reflectors come from the working set.
	if Overlap(sel, ws.cur) <= 0 {
		t.Error("selection disjoint from working set")
	}
	inSet := make(map[netip.Addr]bool)
	for _, r := range ws.cur {
		inSet[r.Addr] = true
	}
	seen := make(map[netip.Addr]bool)
	for _, r := range sel {
		if !inSet[r.Addr] {
			t.Fatalf("selected %v not in working set", r.Addr)
		}
		if seen[r.Addr] {
			t.Fatalf("duplicate selection %v", r.Addr)
		}
		seen[r.Addr] = true
	}
	// Selecting more than available returns the whole set.
	all := ws.Select(10000)
	if len(all) != 300 {
		t.Errorf("over-select returned %d", len(all))
	}
}

func TestAdvanceNoOp(t *testing.T) {
	p := NewPool(amplify.NTP, 1000, 10, 7)
	ws := NewWorkingSet(p, "b", 100, 7)
	before := append([]Reflector(nil), ws.cur...)
	ws.Advance(0)
	ws.Advance(-3)
	if Overlap(before, ws.cur) != 1 {
		t.Error("zero-day advance changed the set")
	}
}

func TestOverlapJaccard(t *testing.T) {
	a := []Reflector{{Addr: netip.MustParseAddr("1.1.1.1")}, {Addr: netip.MustParseAddr("2.2.2.2")}}
	b := []Reflector{{Addr: netip.MustParseAddr("2.2.2.2")}, {Addr: netip.MustParseAddr("3.3.3.3")}}
	if got := Overlap(a, b); got != 1.0/3 {
		t.Errorf("overlap = %v, want 1/3", got)
	}
	if Overlap(a, a) != 1 {
		t.Error("self overlap should be 1")
	}
	if Overlap(a, nil) != 0 {
		t.Error("disjoint overlap should be 0")
	}
	if Overlap(nil, nil) != 1 {
		t.Error("empty/empty defined as 1")
	}
	// Duplicates within a set must not distort the index.
	dup := []Reflector{{Addr: netip.MustParseAddr("2.2.2.2")}, {Addr: netip.MustParseAddr("2.2.2.2")}}
	if got := Overlap(a, dup); got != 0.5 {
		t.Errorf("overlap with dup set = %v, want 0.5", got)
	}
}

func TestOverlapMatrix(t *testing.T) {
	p := NewPool(amplify.NTP, 100000, 100, 8)
	wsA := NewWorkingSet(p, "A", 200, 8)
	wsB := NewWorkingSet(p, "B", 200, 8)
	sets := [][]Reflector{wsA.cur, wsB.cur, wsA.cur}
	m := OverlapMatrix(sets)
	if len(m) != 3 {
		t.Fatalf("matrix dim = %d", len(m))
	}
	for i := range m {
		if m[i][i] != 1 {
			t.Errorf("diagonal [%d] = %v", i, m[i][i])
		}
	}
	if m[0][2] != 1 {
		t.Error("identical sets should overlap 1")
	}
	if m[0][1] != m[1][0] {
		t.Error("matrix not symmetric")
	}
	// Different booters on a huge universe barely overlap.
	if m[0][1] > 0.1 {
		t.Errorf("independent sets overlap %v", m[0][1])
	}
}

func TestUniqueAddrsAndASes(t *testing.T) {
	a := []Reflector{
		{Addr: netip.MustParseAddr("1.1.1.1"), AS: 10},
		{Addr: netip.MustParseAddr("2.2.2.2"), AS: 20},
	}
	b := []Reflector{
		{Addr: netip.MustParseAddr("2.2.2.2"), AS: 20},
		{Addr: netip.MustParseAddr("3.3.3.3"), AS: 10},
	}
	if got := UniqueAddrs([][]Reflector{a, b}); got != 3 {
		t.Errorf("unique addrs = %d", got)
	}
	if got := UniqueASes(append(a, b...)); got != 2 {
		t.Errorf("unique ASes = %d", got)
	}
}

func TestVectorAccessor(t *testing.T) {
	p := NewPool(amplify.CLDAP, 100, 10, 1)
	if p.Vector() != amplify.CLDAP {
		t.Errorf("vector = %v", p.Vector())
	}
}

func BenchmarkAdvance(b *testing.B) {
	p := NewPool(amplify.NTP, 100000, 100, 1)
	ws := NewWorkingSet(p, "bench", 1000, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ws.Advance(1)
	}
}
