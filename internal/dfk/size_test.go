package dfk

import (
	"testing"
	"unsafe"

	"repro/internal/future"
	"repro/internal/task"
)

// TestHotPathStructSizes guards the per-task structs against drifting into
// the next allocator size class. A future.Future is 64 bytes in the 64
// class (the future package's TestFutureFitsOneCacheLine says why): every
// task allocates its AppFuture, and one word more would land it in the 80
// class and add 16 B to every task. A pendingLaunch embeds its attempt future
// and is 232 bytes in the 240 class; it is pooled, so it is not a per-task
// allocation, but a pool refill past 240 bytes would be handed out from the
// 256 class. A
// task.Record is 312 bytes in the 320 class, its waiter and its own argument
// list included.
func TestHotPathStructSizes(t *testing.T) {
	if n := unsafe.Sizeof(future.Future{}); n > 64 {
		t.Errorf("sizeof(future.Future) = %d, want <= 64", n)
	}
	if n := unsafe.Sizeof(pendingLaunch{}); n > 240 {
		t.Errorf("sizeof(pendingLaunch) = %d, want <= 240", n)
	}
	if n := unsafe.Sizeof(task.Record{}); n > 320 {
		t.Errorf("sizeof(task.Record) = %d, want <= 320", n)
	}
}
