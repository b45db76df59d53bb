package memory

import (
	"errors"
	"sync"
	"testing"
)

func TestBudgetBasic(t *testing.T) {
	b := NewBudget("m", 100)
	if err := b.Allocate(60); err != nil {
		t.Fatal(err)
	}
	if err := b.Allocate(50); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("want ErrOutOfMemory, got %v", err)
	}
	if b.Used() != 60 {
		t.Fatalf("failed alloc must not charge: used=%d", b.Used())
	}
	b.Release(30)
	if err := b.Allocate(50); err != nil {
		t.Fatal(err)
	}
	if b.Used() != 80 || b.Peak() != 80 {
		t.Fatalf("used=%d peak=%d", b.Used(), b.Peak())
	}
}

func TestBudgetUnlimited(t *testing.T) {
	b := NewBudget("u", 0)
	if err := b.Allocate(1 << 40); err != nil {
		t.Fatal(err)
	}
	if b.Remaining() < 1<<61 {
		t.Fatal("unlimited budget should report huge remaining")
	}
}

func TestChildChargesParent(t *testing.T) {
	parent := NewBudget("machine", 100)
	child := parent.Child("cache", 80)
	if err := child.Allocate(50); err != nil {
		t.Fatal(err)
	}
	if parent.Used() != 50 {
		t.Fatalf("parent used %d want 50", parent.Used())
	}
	// Child has room but parent does not.
	other := parent.Child("op", 80)
	if err := other.Allocate(60); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("want parent OOM, got %v", err)
	}
	// Failed child alloc must not leak parent charge.
	if parent.Used() != 50 {
		t.Fatalf("parent used %d after failed child alloc, want 50", parent.Used())
	}
	child.Release(50)
	if parent.Used() != 0 {
		t.Fatalf("release did not propagate: parent used %d", parent.Used())
	}
}

func TestChildCapEnforced(t *testing.T) {
	parent := NewBudget("machine", 1000)
	child := parent.Child("groupby", 100)
	if err := child.Allocate(150); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("child cap not enforced: %v", err)
	}
	if parent.Used() != 0 {
		t.Fatalf("parent charged on child failure: %d", parent.Used())
	}
}

func TestReleaseClamp(t *testing.T) {
	b := NewBudget("c", 10)
	b.Release(5)
	if b.Used() != 0 {
		t.Fatal("over-release must clamp at zero")
	}
	if err := b.Allocate(-1); err == nil {
		t.Fatal("negative allocation must error")
	}
}

func TestBudgetConcurrent(t *testing.T) {
	b := NewBudget("conc", 0)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				if err := b.Allocate(8); err != nil {
					t.Error(err)
					return
				}
			}
			for j := 0; j < 1000; j++ {
				b.Release(8)
			}
		}()
	}
	wg.Wait()
	if b.Used() != 0 {
		t.Fatalf("used %d after balanced alloc/release", b.Used())
	}
	if b.Peak() == 0 {
		t.Fatal("peak not recorded")
	}
}

func TestTryAllocate(t *testing.T) {
	b := NewBudget("t", 10)
	if !b.TryAllocate(10) {
		t.Fatal("should fit")
	}
	if b.TryAllocate(1) {
		t.Fatal("should not fit")
	}
}

// A refusal is the common answer under memory pressure (every new key of
// a hash group-by asks), so it must not build an error to throw away.
func TestTryAllocateRefusalDoesNotAllocate(t *testing.T) {
	root := NewBudget("root", 10)
	child := root.Child("child", 100)
	if !child.TryAllocate(10) {
		t.Fatal("should fit")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if child.TryAllocate(1) { // refused by the parent
			t.Fatal("should not fit")
		}
	})
	if allocs != 0 {
		t.Fatalf("refused TryAllocate allocated %v times", allocs)
	}
	if root.Used() != 10 || child.Used() != 10 {
		t.Fatalf("refusal changed usage: root %d child %d", root.Used(), child.Used())
	}
	if err := child.Allocate(1); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("Allocate: want ErrOutOfMemory, got %v", err)
	}
}
