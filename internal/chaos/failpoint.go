package chaos

import (
	"errors"
	"fmt"
	"sync"
)

// ErrInjected is the error a Failpoint returns at a triggered
// operation. Callers distinguish injected faults from real I/O errors
// with errors.Is.
//
//bsvet:allow deadcode oracle: TestCrashRecovery and TestDumpCrashAtEveryWriteOffset tell injected faults from real ones with it
var ErrInjected = errors.New("chaos: injected fault")

// Failpoint is a deterministic fault hook for non-network components
// (file writers, batch pipelines): it counts operations and fails the
// configured operation indexes exactly, keeping a ledger of the faults
// it injected. Unlike Proxy — which perturbs datagrams in flight — a
// Failpoint is wired directly into a component's write path, so tests
// can kill a writer at a precise point (e.g. mid-segment) and assert
// the component's own accounting covers the damage.
//
// The zero value never fires. Failpoints are safe for concurrent use.
type Failpoint struct {
	mu sync.Mutex
	// failAt holds the operation indexes (counting from 0) that fail.
	failAt map[uint64]struct{}
	// failFrom, when > 0, fails every operation at index >= failFrom-1
	// — the shape of a crashed process that never comes back.
	failFrom uint64
	ops      uint64
	injected uint64
}

// NewFailpoint returns a failpoint that fails exactly the given
// operation indexes (counting operations from 0).
//
//bsvet:allow deadcode test seam: TestCheckpointCrashAtEveryWriteOffset and TestCrashRecovery inject faults into the production write paths with it
func NewFailpoint(failAt ...uint64) *Failpoint {
	f := &Failpoint{failAt: make(map[uint64]struct{}, len(failAt))}
	for _, i := range failAt {
		f.failAt[i] = struct{}{}
	}
	return f
}

// FailFrom returns a failpoint that fails every operation from index
// on — once it fires, the component is "dead" and every later write
// fails too, like a crashed process.
//
//bsvet:allow deadcode test seam: TestArchiveErrorDoesNotCostDetection and TestCrashRecovery inject faults into the production write paths with it
func FailFrom(index uint64) *Failpoint {
	return &Failpoint{failFrom: index + 1}
}

// Check counts one operation and reports whether the fault plan fails
// it. The returned error wraps ErrInjected and names the operation.
func (f *Failpoint) Check(op string) error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	i := f.ops
	f.ops++
	fire := false
	if f.failFrom > 0 && i >= f.failFrom-1 {
		fire = true
	}
	if _, ok := f.failAt[i]; ok {
		fire = true
	}
	if !fire {
		return nil
	}
	f.injected++
	return fmt.Errorf("%w: %s (op %d)", ErrInjected, op, i)
}

// Ops reports how many operations have been checked.
//
//bsvet:allow deadcode oracle: TestCheckpointCrashAtEveryWriteOffset and TestCrashRecovery size their fault sweeps with it
func (f *Failpoint) Ops() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Injected reports how many faults the failpoint has injected.
//
//bsvet:allow deadcode oracle: TestFailpointExactIndexes and TestFailpointFailFrom check the fault schedule the crash matrices rely on
func (f *Failpoint) Injected() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}
