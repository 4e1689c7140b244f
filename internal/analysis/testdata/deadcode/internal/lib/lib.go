// Package lib seeds every case the deadcode rule classifies. It is
// part of its own module so the golden test can load that module
// whole: the rule reports nothing on a partial load.
package lib

import "fmt"

// Unused is exported and used by nothing.
func Unused() {} // want "lib.Unused is used by no non-test code; delete it"

// Local is exported but only its own package uses it.
func Local() int { return 1 } // want "lib.Local is exported but only its own package uses it; unexport it"

// TestOnly is used only from lib_test.go, which does not count.
func TestOnly() {} // want "lib.TestOnly is used by no non-test code"

// ForMain is used only from the main package, which counts.
func ForMain() int { return Local() }

// T is used by the main package.
type T struct{ n int }

// String satisfies fmt.Stringer, so nothing needs to call it by name.
func (t T) String() string { return fmt.Sprint(t.n) }

// Dead is an exported method nothing calls.
func (t T) Dead() {} // want "lib.T.Dead is used by no non-test code"

// Sizer is an interface the main package uses.
type Sizer interface{ Size() int }

// Box satisfies Sizer; its Size is called only through the interface.
type Box struct{}

// Size implements Sizer.
func (Box) Size() int { return 1 }

// Measure calls Size through the interface.
func Measure(s Sizer) int { return s.Size() }

func unused() {} // want "lib.unused is used by no non-test code"

// loop only calls itself, which is no use.
func loop(n int) int { // want "lib.loop is used by no non-test code"
	if n == 0 {
		return 0
	}
	return loop(n - 1)
}

// Oracle is kept for the test that checks Unused with it.
//
//bsvet:allow deadcode oracle: TestOnlyCaller in lib_test.go uses it
func Oracle() {}

// NoReason carries an allow directive without a reason, which is
// rejected and suppresses nothing.
func NoReason() {} //bsvet:allow deadcode
// want:-1 "bsvet:allow deadcode needs a reason" "lib.NoReason is used by no non-test code"

// Iota constants are exempt: deleting one renumbers its neighbours.
const (
	first = iota
	second
)

var _ = first
