package dfk

import (
	"testing"
	"unsafe"

	"repro/internal/future"
	"repro/internal/task"
)

// TestHotPathStructSizes guards the per-task structs against drifting into
// the next allocator size class. A future.Future is 104 bytes in the 112
// class: every task allocates its AppFuture, and a 120-byte future would land
// in the 128 class and add 16 B to every task (+9 % of tp_bag's
// alloc_bytes_per_task against its 5 % bound). A pendingLaunch embeds its
// attempt future and is 272 bytes in the 288 class, its arguments being only
// its payload (it was 304 bytes in the 320 class when it also carried the
// resolved argument slice and map); it is pooled, so it is no longer a
// per-task allocation, but a pool refill past 288 bytes would be handed out
// from the 320 class. A task.Record is 312 bytes in the 320 class, its waiter
// and its own argument list included.
func TestHotPathStructSizes(t *testing.T) {
	if n := unsafe.Sizeof(future.Future{}); n > 112 {
		t.Errorf("sizeof(future.Future) = %d, want <= 112", n)
	}
	if n := unsafe.Sizeof(pendingLaunch{}); n > 272 {
		t.Errorf("sizeof(pendingLaunch) = %d, want <= 272", n)
	}
	if n := unsafe.Sizeof(task.Record{}); n > 320 {
		t.Errorf("sizeof(task.Record) = %d, want <= 320", n)
	}
}
