package dfk

import (
	"testing"
	"unsafe"

	"repro/internal/task"
)

// TestHotPathStructSizes guards the two per-task allocations against drifting
// into the next allocator size class. A pendingLaunch is 312 bytes in the 320
// class (two more words make it 328 and the allocator hands out 352, which
// moved tp_bag's alloc_bytes_per_task past its 5 % bound); a task.Record is
// 304 bytes in the same class.
func TestHotPathStructSizes(t *testing.T) {
	if n := unsafe.Sizeof(pendingLaunch{}); n > 312 {
		t.Errorf("sizeof(pendingLaunch) = %d, want <= 312", n)
	}
	if n := unsafe.Sizeof(task.Record{}); n > 320 {
		t.Errorf("sizeof(task.Record) = %d, want <= 320", n)
	}
}
