package iosched

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"testing"

	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/rt"
)

// testClock is a shared virtual clock that counts Sleep calls: the
// zero-busy-wait regression tests assert the scheduler never sleep-polls.
type testClock struct {
	mu     sync.Mutex
	now    float64
	sleeps int
}

func (c *testClock) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Sleep(d float64) {
	c.mu.Lock()
	c.sleeps++
	c.now += d
	c.mu.Unlock()
}

func (c *testClock) Compute(d float64) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

func (c *testClock) sleepCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sleeps
}

// stubCtx is a minimal mpi.Ctx over goroutines and channel queues — just
// enough surface for the engine (Clock, Spawn, NewQueue).
type stubCtx struct{ clock *testClock }

func (s *stubCtx) Comm() mpi.Comm    { return nil }
func (s *stubCtx) Clock() rt.Clock   { return s.clock }
func (s *stubCtx) FS() rt.FS         { return nil }
func (s *stubCtx) Node() int         { return 0 }
func (s *stubCtx) ProcsPerNode() int { return 1 }

func (s *stubCtx) Spawn(name string, fn func(rt.TaskCtx)) {
	go fn(stubTaskCtx{clock: s.clock})
}

func (s *stubCtx) NewQueue(capacity int) rt.Queue { return make(chanQueue, max(capacity, 1)) }

// chanQueue is rt.Queue over a buffered channel; the goroutines block
// natively, so the Clock arguments are ignored.
type chanQueue chan interface{}

func (q chanQueue) Put(_ rt.Clock, v interface{}) { q <- v }
func (q chanQueue) Close()                        { close(q) }

func (q chanQueue) Get(rt.Clock) (interface{}, bool) {
	v, ok := <-q
	return v, ok
}

func (q chanQueue) TryGet(rt.Clock) (interface{}, bool) {
	select {
	case v, ok := <-q:
		return v, ok
	default:
		return nil, false
	}
}

type stubTaskCtx struct{ clock *testClock }

func (t stubTaskCtx) Clock() rt.Clock { return t.clock }
func (t stubTaskCtx) FS() rt.FS       { return nil }

func newTestEngine(t *testing.T, cfg Config) (*Engine, *testClock) {
	t.Helper()
	clock := &testClock{}
	return New(&stubCtx{clock: clock}, cfg), clock
}

// TestBackpressureBlocksWithoutSleeping is the satellite regression test:
// a one-byte streaming budget stalls every submit behind the writer, and
// the stall must block on completion signals — zero Sleep calls anywhere,
// on the submitter or the workers — while still counting the waits.
func TestBackpressureBlocksWithoutSleeping(t *testing.T) {
	reg := metrics.New()
	eng, clock := newTestEngine(t, Config{
		Name:     "test-drain",
		Workers:  2,
		Budget:   1,
		QueueCap: 64,
		Metrics:  reg,
	})
	var done int
	var mu sync.Mutex
	const n = 20
	for i := 0; i < n; i++ {
		info := eng.Submit(&Task{
			Class: ClassWrite,
			Key:   "file-a",
			Cost:  100,
			Run: func(rt.TaskCtx, WorkerState) Result {
				mu.Lock()
				done++
				mu.Unlock()
				return Result{}
			},
		})
		if !info.Waited {
			t.Fatalf("submit %d: expected a budget wait (queued %d over budget 1)", i, info.Queued)
		}
	}
	if err := eng.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	eng.Close()
	mu.Lock()
	d := done
	mu.Unlock()
	if d != n {
		t.Fatalf("ran %d of %d tasks", d, n)
	}
	if got := clock.sleepCount(); got != 0 {
		t.Fatalf("scheduler took %d busy-wait sleeps under backpressure, want 0", got)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["iosched.write.backpressure_waits"]; got != n {
		t.Fatalf("iosched.write.backpressure_waits = %d, want %d", got, n)
	}
	if got := snap.Counters["iosched.write.tasks"]; got != n {
		t.Fatalf("iosched.write.tasks = %d, want %d", got, n)
	}
}

// TestKeyedOrdering checks the scheduler invariant the drain engine's
// bit-exactness rests on: tasks sharing a key execute on one worker in
// submission order, even across a wide pool.
func TestKeyedOrdering(t *testing.T) {
	eng, _ := newTestEngine(t, Config{
		Name:     "test-order",
		Workers:  8,
		QueueCap: 256,
	})
	var mu sync.Mutex
	got := make(map[string][]int)
	keys := []string{"alpha", "beta", "gamma", "delta"}
	const perKey = 50
	for i := 0; i < perKey; i++ {
		for _, key := range keys {
			key, i := key, i
			eng.Submit(&Task{
				Class: ClassWrite,
				Key:   key,
				Cost:  1,
				Run: func(rt.TaskCtx, WorkerState) Result {
					mu.Lock()
					got[key] = append(got[key], i)
					mu.Unlock()
					return Result{}
				},
			})
		}
	}
	if err := eng.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	eng.Close()
	mu.Lock()
	defer mu.Unlock()
	for _, key := range keys {
		if len(got[key]) != perKey {
			t.Fatalf("key %s ran %d of %d tasks", key, len(got[key]), perKey)
		}
		for i, v := range got[key] {
			if v != i {
				t.Fatalf("key %s executed out of submission order: position %d got task %d (full: %v)", key, i, v, got[key])
			}
		}
	}
}

// TestRestartReadAdmission checks the batch admission rule's two degenerate modes:
// unbounded budget floods the pool (peak depth = batch size, no waits),
// and a tiny budget degenerates to serial admission (peak depth 1, every
// deferred task counted once).
func TestRestartReadAdmission(t *testing.T) {
	run := func(budget int64) (peak float64, waits int64) {
		reg := metrics.New()
		eng, _ := newTestEngine(t, Config{
			Name:     "test-read",
			Workers:  4,
			Budget:   budget,
			QueueCap: 16,
			Metrics:  reg,
		})
		var tasks []*Task
		for i := 0; i < 8; i++ {
			tasks = append(tasks, &Task{
				Class: ClassRead,
				Cost:  10,
				Run:   func(rt.TaskCtx, WorkerState) Result { return Result{} },
			})
		}
		eng.RunBatch(tasks, nil)
		eng.Close()
		snap := reg.Snapshot()
		return snap.Gauges["iosched.read.queue_depth"], snap.Counters["iosched.read.backpressure_waits"]
	}
	if peak, waits := run(0); peak != 8 || waits != 0 {
		t.Fatalf("unbounded budget: peak depth %v waits %d, want 8 and 0", peak, waits)
	}
	if peak, waits := run(1); peak != 1 || waits != 7 {
		t.Fatalf("one-byte budget: peak depth %v waits %d, want 1 (serial) and 7", peak, waits)
	}
}

// TestRoundRobinDealing checks that unkeyed tasks are dealt strictly by
// submission index, the dealing the read pool sizes its queues by.
func TestRoundRobinDealing(t *testing.T) {
	const nw = 4
	eng, _ := newTestEngine(t, Config{
		Name:     "test-rr",
		Workers:  nw,
		QueueCap: 64,
	})
	for i := 0; i < 4*nw; i++ {
		want := i % nw
		if got := eng.route(&Task{}); got != want {
			t.Fatalf("unkeyed task %d routed to worker %d, want %d", i, got, want)
		}
	}
	eng.Close()
}

// TestByteBalancedDealing checks the deal on a batch shaped like a restart
// read round — a full file's 512 KB chunks and tail, then the short runs of
// delta files: after it, the bytes dealt to any two workers differ by at
// most the largest task's cost. Keyed tasks keep their FNV-32a routing.
func TestByteBalancedDealing(t *testing.T) {
	const nw = 4
	eng, _ := newTestEngine(t, Config{
		Name:     "test-deal",
		Workers:  nw,
		QueueCap: 64,
	})
	defer eng.Close()
	var costs []int64
	for range 5 {
		costs = append(costs, 512<<10)
	}
	costs = append(costs, 200<<10)
	for i := range 36 {
		costs = append(costs, int64(4<<10+(i%7)*3<<10))
	}
	var dealt [nw]int64
	var largest int64
	for _, c := range costs {
		dealt[eng.route(&Task{Cost: c})] += c
		largest = max(largest, c)
	}
	if lo, hi := slices.Min(dealt[:]), slices.Max(dealt[:]); hi-lo > largest {
		t.Fatalf("dealt bytes per worker %v: spread %d exceeds the largest task's %d", dealt, hi-lo, largest)
	}
	for _, key := range []string{"a_s000.rhdf", "a_s001.rhdf", "a_s002r1.rhdf", "b_p00003.rhdf"} {
		h := fnv.New32a()
		h.Write([]byte(key))
		want := int(h.Sum32() % nw)
		if got := eng.route(&Task{Key: key, Cost: 512 << 10}); got != want {
			t.Fatalf("keyed task %q routed to worker %d, want FNV-32a mod %d = %d", key, got, nw, want)
		}
	}
}

// TestFlushErrorSticky checks error semantics: a failed task surfaces on
// the next flush and on every flush after it, so no later generation can
// commit past a lost block.
func TestFlushErrorSticky(t *testing.T) {
	boom := errors.New("disk full")
	reg := metrics.New()
	eng, _ := newTestEngine(t, Config{
		Name:     "test-err",
		Workers:  1,
		QueueCap: 8,
		Metrics:  reg,
	})
	eng.Submit(&Task{Class: ClassWrite, Cost: 1, Run: func(rt.TaskCtx, WorkerState) Result {
		return Result{Err: boom}
	}})
	if err := eng.Flush(); !errors.Is(err, boom) {
		t.Fatalf("first flush err = %v, want %v", err, boom)
	}
	eng.Submit(&Task{Class: ClassWrite, Cost: 1, Run: func(rt.TaskCtx, WorkerState) Result {
		return Result{}
	}})
	if err := eng.Flush(); !errors.Is(err, boom) {
		t.Fatalf("second flush err = %v, want sticky %v", err, boom)
	}
	eng.Close()
	if got := reg.Snapshot().Counters["iosched.write.errors"]; got != 1 {
		t.Fatalf("iosched.write.errors = %d, want 1", got)
	}
}

// TestFatalResultStopsPool checks the injected-crash path: a fatal task
// kills its worker after the completion is reported, and the engine
// surfaces it through Crashed without wedging Flush or Close.
func TestFatalResultStopsPool(t *testing.T) {
	reg := metrics.New()
	eng, _ := newTestEngine(t, Config{
		Name:     "test-fatal",
		Workers:  1,
		QueueCap: 8,
		Metrics:  reg,
	})
	eng.Submit(&Task{Class: ClassWrite, Cost: 1, Run: func(rt.TaskCtx, WorkerState) Result {
		return Result{Fatal: true}
	}})
	if err := eng.Flush(); err != nil {
		t.Fatalf("flush after crash: %v", err)
	}
	if !eng.Crashed() {
		t.Fatal("engine did not report the crash")
	}
	eng.Close()
	if got := reg.Snapshot().Counters["iosched.write.tasks"]; got != 1 {
		t.Fatalf("the fatal task's completion was lost: iosched.write.tasks = %d, want 1", got)
	}

	// A batch sized as the read pool sizes one: round-robin queues of
	// n/nw+2 and the derived control queue. A crash mid-batch leaves the
	// dead worker's queue unread, and neither RunBatch nor Close may wedge.
	const n, nw = 200, 3
	eng, _ = newTestEngine(t, Config{Name: "test-fatal-batch", Workers: nw, QueueCap: n/nw + 2})
	var tasks []*Task
	for i := 0; i < n; i++ {
		fatal := i == n/2
		tasks = append(tasks, &Task{Class: ClassRead, Cost: 1, Run: func(rt.TaskCtx, WorkerState) Result {
			return Result{Fatal: fatal}
		}})
	}
	eng.RunBatch(tasks, nil)
	if !eng.Crashed() {
		t.Fatal("batch engine did not report the crash")
	}
	eng.Close()
}

// TestWorkerStateFlush checks that a barrier flushes every worker's
// private state exactly once per Flush.
func TestWorkerStateFlush(t *testing.T) {
	var mu sync.Mutex
	flushes := 0
	eng, _ := newTestEngine(t, Config{
		Name:     "test-state",
		Workers:  3,
		QueueCap: 8,
		NewState: func(wi int, tc rt.TaskCtx) WorkerState {
			return &countingState{mu: &mu, flushes: &flushes}
		},
	})
	if err := eng.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	mu.Lock()
	got := flushes
	mu.Unlock()
	if got != 3 {
		t.Fatalf("flushed %d worker states, want 3", got)
	}
	eng.Close()
}

type countingState struct {
	mu      *sync.Mutex
	flushes *int
}

func (c *countingState) Flush() error {
	c.mu.Lock()
	*c.flushes++
	c.mu.Unlock()
	return nil
}

func (c *countingState) Close() error { return nil }

// TestUnifiedMetricNames pins the scheduler's metric surface: one series
// set per class, under the iosched. prefix.
func TestUnifiedMetricNames(t *testing.T) {
	reg := metrics.New()
	eng, _ := newTestEngine(t, Config{
		Name:     "test-names",
		Workers:  1,
		QueueCap: 8,
		Metrics:  reg,
	})
	eng.Submit(&Task{Class: ClassWrite, Cost: 1, Run: func(rt.TaskCtx, WorkerState) Result { return Result{} }})
	eng.Flush()
	eng.Close()
	snap := reg.Snapshot()
	for _, class := range []string{"write", "read"} {
		for _, name := range []string{"backpressure_waits", "errors", "tasks"} {
			key := fmt.Sprintf("iosched.%s.%s", class, name)
			if _, ok := snap.Counters[key]; !ok {
				t.Errorf("counter %s not registered", key)
			}
		}
		if _, ok := snap.Gauges["iosched."+class+".queue_depth"]; !ok {
			t.Errorf("gauge iosched.%s.queue_depth not registered", class)
		}
		for _, name := range []string{"overlap_seconds", "busy_seconds"} {
			key := fmt.Sprintf("iosched.%s.%s", class, name)
			if _, ok := snap.Histograms[key]; !ok {
				t.Errorf("histogram %s not registered", key)
			}
		}
	}
	if got := snap.Counters["iosched.write.tasks"]; got != 1 {
		t.Fatalf("iosched.write.tasks = %d, want 1", got)
	}
}

// waitCtx is stubCtx whose first queue — the engine's control queue —
// signals waits: every time the submitter blocks on it.
type waitCtx struct {
	stubCtx
	waits chan struct{}
	made  int
}

func (c *waitCtx) NewQueue(capacity int) rt.Queue {
	c.made++
	if c.made == 1 {
		return waitQueue{make(chanQueue, max(capacity, 1)), c.waits}
	}
	return c.stubCtx.NewQueue(capacity)
}

type waitQueue struct {
	chanQueue
	waits chan struct{}
}

func (q waitQueue) Get(c rt.Clock) (interface{}, bool) {
	q.waits <- struct{}{}
	return q.chanQueue.Get(c)
}

// TestSharedChargeReleasedByLastCopy: the tasks of one SubmitShared hold
// one charge, as a replicated block's copies do. With a budget under two
// blocks, the second block's submitter stays held when the first block's
// first copy completes and is released by its last; the queued bytes are
// 0 after Flush; and a copy whose worker dies to an injected crash between
// the block's copies counts its completion once, so the charge is neither
// released twice nor kept.
func TestSharedChargeReleasedByLastCopy(t *testing.T) {
	const block = 100
	// Room for every wait of the run, the unread ones of Flush and Close
	// included, so no Get blocks on its signal.
	ctx := &waitCtx{stubCtx: stubCtx{clock: &testClock{}}, waits: make(chan struct{}, 64)}
	eng := New(ctx, Config{Name: "test-share", Workers: 2, Budget: 3 * block / 2, QueueCap: 8})
	// Two copy files that route to different workers.
	keys := []string{"f-0"}
	for i := 1; len(keys) < 2; i++ {
		if k := fmt.Sprintf("f-%d", i); eng.route(&Task{Key: k}) != eng.route(&Task{Key: keys[0]}) {
			keys = append(keys, k)
		}
	}
	copyTask := func(key string, gate chan struct{}) *Task {
		return &Task{Class: ClassWrite, Key: key, Run: func(rt.TaskCtx, WorkerState) Result {
			if gate != nil {
				<-gate
			}
			return Result{}
		}}
	}
	first, last := make(chan struct{}), make(chan struct{})
	if info := eng.SubmitShared(block, copyTask(keys[0], first), copyTask(keys[1], last)); info.Waited || info.Queued != block {
		t.Fatalf("first block: %+v, want %d bytes queued once and no wait", info, block)
	}
	held := make(chan SubmitInfo)
	go func() { held <- eng.SubmitShared(block, copyTask(keys[0], nil), copyTask(keys[1], nil)) }()
	<-ctx.waits // the second block's submitter blocks on completions
	close(first)
	select {
	case <-ctx.waits: // the first copy's completion left it held
	case info := <-held:
		t.Fatalf("released by the first block's first copy: %+v", info)
	}
	close(last)
	if info := <-held; !info.Waited || info.Queued != 2*block {
		t.Fatalf("second block: %+v, want a wait at %d bytes", info, 2*block)
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	if eng.queued != 0 {
		t.Fatalf("%d bytes queued after Flush, want 0", eng.queued)
	}
	eng.Close()

	// A crash between copies: the first copy's worker dies after landing it,
	// the second copy lands on the other worker.
	eng, _ = newTestEngine(t, Config{Name: "test-share-crash", Workers: 2, Budget: 3 * block / 2, QueueCap: 8})
	crash := copyTask(keys[0], nil)
	crash.Run = func(rt.TaskCtx, WorkerState) Result { return Result{Fatal: true} }
	eng.SubmitShared(block, crash, copyTask(keys[1], nil))
	eng.Flush() // returns when the crashed worker exits
	eng.Close()
	if !eng.Crashed() {
		t.Fatal("the crashing copy did not crash its worker")
	}
	if eng.queued != 0 {
		t.Fatalf("%d bytes queued after both copies completed, want 0", eng.queued)
	}
}
