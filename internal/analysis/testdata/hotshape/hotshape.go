// Package hotshape seeds a generic hot-path function for the golden
// test. The compiler names each instantiation's escapes by its GC
// shape, which for a struct type argument spells the whole field list;
// the golden test's budget entry spells a layout neither instantiation
// has, and must still cover both.
package hotshape

import "fmt"

// table hands out elements carved from a 256-element arena.
type table[B any] struct{ arena []B }

// get's arena refill is budgeted once for both instantiations; the
// formatting call is planted and must still be caught.
//
//bsvet:hotpath
func (t *table[B]) get() *B {
	if len(t.arena) == 0 {
		t.arena = make([]B, 256)
	}
	b := &t.arena[0]
	t.arena = t.arena[1:]
	_ = fmt.Sprint(len(t.arena)) // want "escapes to heap inside //bsvet:hotpath function \\(\\*table\\)\\.get"
	return b
}

type narrow struct{ n uint64 }

type wide struct {
	n     uint64
	seen  bool
	names [4][16]byte
}

// Narrow and Wide keep both instantiations compiled.
var (
	Narrow = new(table[narrow])
	Wide   = new(table[wide])
)

// Use calls get at both shapes.
func Use() (*narrow, *wide) { return Narrow.get(), Wide.get() }
