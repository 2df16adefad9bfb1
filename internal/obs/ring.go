package obs

import "slices"

// ring keeps the last cap(buf) values pushed into it: the bounded buffer
// behind the flight recorder, the slow-query log, the tracer and the
// incident store. It is not safe for concurrent use; each owner guards
// it with its own mutex.
type ring[T any] struct {
	buf  []T // fills by append up to its capacity, then wraps
	next int // once full, the slot of the oldest value, written next
}

func newRing[T any](size int) ring[T] {
	return ring[T]{buf: make([]T, 0, max(size, 1))}
}

// push adds v, overwriting the oldest value once the ring is full.
func (r *ring[T]) push(v T) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
}

// oldestFirst returns a copy of the retained values, oldest first.
func (r *ring[T]) oldestFirst() []T {
	out := make([]T, 0, len(r.buf))
	return append(append(out, r.buf[r.next:]...), r.buf[:r.next]...)
}

// newestFirst returns a copy of the retained values, newest first.
func (r *ring[T]) newestFirst() []T {
	out := r.oldestFirst()
	slices.Reverse(out)
	return out
}

// reset drops every retained value.
func (r *ring[T]) reset() {
	clear(r.buf)
	r.buf, r.next = r.buf[:0], 0
}
