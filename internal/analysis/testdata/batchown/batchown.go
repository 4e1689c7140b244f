// Package batchown seeds deliberate violations of the pipe.Batch
// linear-ownership contract for the golden-diagnostic tests.
package batchown

import (
	"sync"

	"booterscope/internal/pipe"
)

// UseAfterRelease is the canonical bug: the slab may already be
// recycled by a concurrent NewBatch when Len reads it.
func UseAfterRelease() int {
	b := pipe.Wrap(nil)
	b.Release()
	return b.Len() // want "batch b used after Release"
}

// DoubleRelease corrupts the pool: the second Release re-inserts a
// slab someone else may have checked out.
func DoubleRelease() {
	b := pipe.Wrap(nil)
	b.Release()
	b.Release() // want "batch b used after Release"
}

// UseAfterSend races the receiving goroutine.
func UseAfterSend(ch chan *pipe.Batch) int {
	b := pipe.Wrap(nil)
	ch <- b
	return b.Len() // want "batch b used after channel send"
}

// UseAfterPut is the raw pool form of UseAfterRelease.
func UseAfterPut(pool *sync.Pool) int {
	b := pipe.Wrap(nil)
	pool.Put(b)
	return b.Len() // want "batch b used after Pool.Put"
}

// UseAfterEmit violates the Source contract: ownership of an emitted
// batch passes to the callback.
func UseAfterEmit(emit func(*pipe.Batch) error) error {
	b := pipe.Wrap(nil)
	if err := emit(b); err != nil {
		return err
	}
	_ = b.Len() // want "batch b used after emit hand-off"
	return nil
}

// NestedPoison: a consume in the enclosing block flags uses inside
// later nested blocks.
func NestedPoison(cond bool) int {
	b := pipe.Wrap(nil)
	b.Release()
	if cond {
		return b.Len() // want "batch b used after Release"
	}
	return 0
}

// DeferRelease is the idiomatic cleanup: the deferred call runs after
// every use, so nothing here is flagged.
func DeferRelease() int {
	b := pipe.Wrap(nil)
	defer b.Release()
	return b.Len()
}

// Reassigned starts a fresh ownership: the second slab is unrelated to
// the released one.
func Reassigned() int {
	b := pipe.Wrap(nil)
	b.Release()
	b = pipe.Wrap(nil)
	n := b.Len()
	b.Release()
	return n
}

// BranchLocal releases in one arm only; code after the if still owns
// the batch on the other path, so the analyzer (branch-local by
// design) stays quiet.
func BranchLocal(cond bool) {
	b := pipe.Wrap(nil)
	if cond {
		b.Release()
		return
	}
	b.Release()
}

// ProcessKeepsOwnership: declared functions and methods do not consume
// — pipe.Stage.Process documents that the caller retains ownership.
func ProcessKeepsOwnership(st pipe.Stage) error {
	b := pipe.Wrap(nil)
	defer b.Release()
	if err := st.Process(b); err != nil {
		return err
	}
	_ = b.Len()
	return nil
}

// AllowedUse shows the escape hatch for a reviewed exception.
func AllowedUse() int {
	b := pipe.Wrap(nil)
	b.Release()
	return b.Len() //bsvet:allow batchownership testdata exercises the directive on an ownership finding
}
