// Package hotpath seeds escape-analysis violations for the golden
// test. The analyzer shells out to the real compiler
// (go build -gcflags=-m=2), so every escape below is a stable,
// deliberate one.
package hotpath // want "budget entry Gone \"new\\(int\\)\" matches no escape"

import "fmt"

// Sum stays allocation-free: clean, which makes the golden test's
// budget entry for it stale.
//
//bsvet:hotpath
func Sum(xs []int) int { // want "budget entry Sum \"make\\(\\[\\]int, n\\)\" matches no escape"
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// Leaky formats in the hot path — the classic regression this gate
// exists to catch.
//
//bsvet:hotpath
func Leaky(n int) string {
	return fmt.Sprintf("n=%d", n) // want "n escapes to heap inside //bsvet:hotpath function Leaky"
}

// Budgeted's escape is covered by the golden test's budget entry and
// must stay silent.
//
//bsvet:hotpath
func Budgeted() *int {
	return new(int)
}

//bsvet:hotpath
var Scratch [4]byte // want:-1 "must be in the doc comment of a function"

// Args carries a directive with an argument, which the rule rejects:
// justifications live in the budget file, not on the annotation.
//
//bsvet:hotpath justified
func Args() {} // want:-1 "takes no arguments"
