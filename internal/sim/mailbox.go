package sim

import "slices"

// Mailbox is an unbounded FIFO of messages with predicate matching, the
// building block for MPI-style tagged receive and probe. Messages are
// delivered with Put and retrieved in FIFO order among those matching a
// predicate.
type Mailbox struct {
	env     *Env
	name    string
	queue   []interface{}
	waiters []*mboxWaiter
}

type mboxWaiter struct {
	p    *Proc
	pred func(interface{}) bool
	take bool // true: Get (consume); false: Probe (peek)
	val  interface{}
}

// NewMailbox returns an empty mailbox.
func (e *Env) NewMailbox(name string) *Mailbox {
	return &Mailbox{env: e, name: name}
}

// Len returns the number of queued (undelivered) messages.
func (m *Mailbox) Len() int { return len(m.queue) }

// Put deposits message v. If a blocked Get matches, the message is handed
// to it directly; matching Probes are woken but do not consume it. Put
// never blocks.
func (m *Mailbox) Put(v interface{}) {
	consumed := false
	kept := m.waiters[:0]
	for i, w := range m.waiters {
		if consumed || !w.pred(v) {
			kept = append(kept, w)
			continue
		}
		w.val, w.p.expire = v, nil
		m.env.schedule(w.p, m.env.now)
		if w.take {
			consumed = true
			kept = append(kept, m.waiters[i+1:]...)
			break
		}
	}
	m.waiters = kept
	if !consumed {
		m.queue = append(m.queue, v)
	}
}

// Get removes and returns the first queued message matching pred, blocking
// the calling process until one is available. With timeout > 0 the wait
// has a deadline timeout seconds on and returns nil if it expires, which it
// does only once no wakeup is pending (Env.Run).
func (m *Mailbox) Get(p *Proc, pred func(interface{}) bool, timeout float64) interface{} {
	for i, v := range m.queue {
		if pred(v) {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			return v
		}
	}
	w := &mboxWaiter{p: p, pred: pred, take: true}
	m.waiters = append(m.waiters, w)
	if timeout > 0 {
		p.deadline, p.expire = m.env.now+timeout, func() {
			m.waiters = slices.DeleteFunc(m.waiters, func(x *mboxWaiter) bool { return x == w })
		}
	}
	p.park("recv:" + m.name)
	return w.val
}

// Probe blocks until a message matching pred is present and returns it
// without removing it from the mailbox.
func (m *Mailbox) Probe(p *Proc, pred func(interface{}) bool) interface{} {
	for _, v := range m.queue {
		if pred(v) {
			return v
		}
	}
	w := &mboxWaiter{p: p, pred: pred, take: false}
	m.waiters = append(m.waiters, w)
	p.park("probe:" + m.name)
	return w.val
}

// TryProbe returns the first queued message matching pred without removing
// it, or (nil, false) if none is queued. It never blocks.
func (m *Mailbox) TryProbe(pred func(interface{}) bool) (interface{}, bool) {
	for _, v := range m.queue {
		if pred(v) {
			return v, true
		}
	}
	return nil, false
}
