package rt

// TaskCtx is the execution context handed to a background activity (the
// paper's per-process I/O thread in T-Rochdf): its own clock identity and
// filesystem view, so simulated backends can charge time to the right
// entity.
type TaskCtx interface {
	Clock() Clock
	FS() FS
}

// Queue is a bounded FIFO connecting a rank and its background activities,
// with Go-channel semantics: Put blocks while full and panics if the queue
// is closed; Get blocks while empty and reports closure with ok=false once
// drained. TryGet never blocks: it returns the head item if one is ready
// and (nil, false) when the queue is empty or closed-and-drained — the
// completion-signal primitive the iosched budget gate reaps with between
// blocking waits. The Clock argument identifies the calling activity,
// which simulated backends need in order to block the right process.
type Queue interface {
	Put(c Clock, v interface{})
	Get(c Clock) (interface{}, bool)
	TryGet(c Clock) (interface{}, bool)
	Close()
}
