package task

// Observer receives task-graph lifecycle events for the runtime sanitizer.
// All callbacks are invoked with the runtime's internal lock held, so they
// are serialised with respect to each other; implementations must not call
// back into the Runtime. Every hook site is nil-guarded: a runtime without
// an observer pays one pointer check per event and nothing else.
//
// Task ids are positive and unique within one Runtime, in spawn order.
// A WaitAccess (taskwait with dependencies) is reported as TaskSpawned with
// id 0, label "taskwait" and its accesses as the caller passed them, and
// nothing else: it has no edges of its own and never finishes as a task.
type Observer interface {
	// TaskSpawned fires when Spawn registers a task, before any of its
	// dependence edges. Every access carries its region's handle; one that
	// came through the front door also still carries its key. The accs
	// slice is the runtime's; implementations must copy what they keep.
	TaskSpawned(id uint64, label string, accs []Access)
	// TaskDependence fires when the graph adds an edge: succ will not
	// start until pred has released its dependencies.
	TaskDependence(pred, succ uint64)
	// TaskFinished fires when a task releases its dependencies (body
	// returned and all bound events completed).
	TaskFinished(id uint64)
	// Quiesced fires when Wait observes a fully drained graph: every task
	// spawned so far has finished, so accesses before the quiescent point
	// are ordered against everything spawned after it.
	Quiesced()
	// RegionsReset fires when ResetRegions drops every handle: the ones the
	// runtime hands out from now on carry the next generation.
	RegionsReset()
}
