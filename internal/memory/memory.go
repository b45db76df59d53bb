// Package memory provides metered memory budgets for the simulated
// shared-nothing cluster.
//
// Every simulated machine (node controller) owns a Budget representing its
// physical RAM. Subsystems carve child budgets out of it: the buffer cache
// for vertex access methods, per-operator group-by buffers, and network
// channel buffers, mirroring the memory layout of Section 5.4 of the
// paper. Pregelix operators respond to exhaustion by spilling to disk;
// process-centric baseline engines instead surface ErrOutOfMemory, which
// reproduces the failure boundaries of the paper's Figures 10-13.
package memory

import (
	"errors"
	"fmt"
	"sync"
)

// ErrOutOfMemory is returned when an allocation would exceed a budget and
// the owner has opted into hard failure (process-centric engines).
var ErrOutOfMemory = errors.New("memory: out of memory")

// Budget meters a fixed capacity of bytes. The zero value is unusable; use
// NewBudget. A Budget is safe for concurrent use.
type Budget struct {
	name     string
	capacity int64

	mu     sync.Mutex
	used   int64
	peak   int64
	parent *Budget
}

// NewBudget creates a root budget with the given byte capacity. A capacity
// of zero or less means unlimited.
func NewBudget(name string, capacity int64) *Budget {
	return &Budget{name: name, capacity: capacity}
}

// Child carves a sub-budget out of b. Allocations against the child are
// charged to both the child and b, so a machine-wide budget observes all
// of its subsystems.
func (b *Budget) Child(name string, capacity int64) *Budget {
	return &Budget{name: name, capacity: capacity, parent: b}
}

// Capacity returns the configured byte capacity (<=0 means unlimited).
func (b *Budget) Capacity() int64 { return b.capacity }

// Name returns the budget's diagnostic name.
func (b *Budget) Name() string { return b.name }

// Used returns the bytes currently allocated.
func (b *Budget) Used() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used
}

// Peak returns the high-water mark of allocated bytes.
func (b *Budget) Peak() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.peak
}

// Allocate charges n bytes against the budget, failing with
// ErrOutOfMemory when capacity would be exceeded. n must be non-negative.
func (b *Budget) Allocate(n int64) error {
	if n < 0 {
		return fmt.Errorf("memory: negative allocation %d", n)
	}
	if full, used := b.charge(n); full != nil {
		return fmt.Errorf("%w: budget %q used %d + %d > cap %d",
			ErrOutOfMemory, full.name, used, n, full.capacity)
	}
	return nil
}

// charge charges n bytes to b and its ancestors, or to none of them: it
// returns the budget that has no room (nil when all had) and what that
// budget had in use.
func (b *Budget) charge(n int64) (full *Budget, used int64) {
	if b.parent != nil {
		if full, used = b.parent.charge(n); full != nil {
			return full, used
		}
	}
	b.mu.Lock()
	if b.capacity > 0 && b.used+n > b.capacity {
		used = b.used
		b.mu.Unlock()
		if b.parent != nil {
			b.parent.Release(n)
		}
		return b, used
	}
	b.used += n
	if b.used > b.peak {
		b.peak = b.used
	}
	b.mu.Unlock()
	return nil, 0
}

// TryAllocate reports whether n bytes fit, charging them if so. It is
// what spill decisions call: per new key in a hash group-by under
// pressure, per frame in a sort, so a refusal builds no error.
func (b *Budget) TryAllocate(n int64) bool {
	if n < 0 {
		return false
	}
	full, _ := b.charge(n)
	return full == nil
}

// Release returns n bytes to the budget. Releasing more than allocated is
// clamped to zero to keep accounting robust against double-release bugs in
// failure paths.
func (b *Budget) Release(n int64) {
	if n < 0 {
		return
	}
	b.mu.Lock()
	b.used -= n
	if b.used < 0 {
		b.used = 0
	}
	b.mu.Unlock()
	if b.parent != nil {
		b.parent.Release(n)
	}
}

// Remaining returns capacity-used, or a very large number when unlimited.
func (b *Budget) Remaining() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.capacity <= 0 {
		return 1 << 62
	}
	r := b.capacity - b.used
	if r < 0 {
		r = 0
	}
	return r
}
