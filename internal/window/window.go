// Package window implements count-based sliding windows, the buffering
// discipline behind the paper's stateful operators (aggregations, spatial
// queries and band-joins are all evaluated "over the last w items, every s
// new items").
package window

import "fmt"

// Trigger is the fire cadence of a count window with length w and slide s:
// it fires the first time w items have arrived, and on every s-th arrival
// after that. Count uses it; an operator that keeps its own window state
// instead of a Count uses it directly.
type Trigger struct {
	length, slide int
	filled        int // arrivals counted toward the first fire, at most length
	sinceFire     int
}

// NewTrigger returns the cadence of a window with the given length and
// slide. Length and slide must be positive; slide may exceed length
// (sampling windows).
func NewTrigger(length, slide int) (Trigger, error) {
	if length <= 0 {
		return Trigger{}, fmt.Errorf("window: length %d, must be > 0", length)
	}
	if slide <= 0 {
		return Trigger{}, fmt.Errorf("window: slide %d, must be > 0", slide)
	}
	return Trigger{length: length, slide: slide}, nil
}

// MustTrigger is NewTrigger that panics on error; for statically-known sizes.
func MustTrigger(length, slide int) Trigger {
	t, err := NewTrigger(length, slide)
	if err != nil {
		panic(err)
	}
	return t
}

// Arrive counts one arrival and reports whether the window fires on it.
func (t *Trigger) Arrive() bool {
	if t.filled < t.length {
		t.filled++
		return t.filled == t.length
	}
	t.sinceFire++
	if t.sinceFire < t.slide {
		return false
	}
	t.sinceFire = 0
	return true
}

// Length returns the configured window length.
func (t *Trigger) Length() int { return t.length }

// Slide returns the configured slide.
func (t *Trigger) Slide() int { return t.slide }

// Count is a count-based sliding window of float64 payloads with length w
// and slide s: once w items have been buffered, the window fires on every
// s-th arrival, exposing the most recent w items.
//
// The zero value is not usable; construct with NewCount. Count is not safe
// for concurrent use: each operator replica owns its windows.
type Count[T any] struct {
	buf  []T
	head int // index of the oldest element; 0 until the window is full
	size int
	fire Trigger
}

// NewCount returns a window with the given length and slide. Length and
// slide must be positive; slide may exceed length (sampling windows).
func NewCount[T any](length, slide int) (*Count[T], error) {
	fire, err := NewTrigger(length, slide)
	if err != nil {
		return nil, err
	}
	return &Count[T]{buf: make([]T, length), fire: fire}, nil
}

// MustCount is NewCount that panics on error; for statically-known sizes.
func MustCount[T any](length, slide int) *Count[T] {
	w, err := NewCount[T](length, slide)
	if err != nil {
		panic(err)
	}
	return w
}

// Add buffers one item and reports whether the window fires: the first time
// the window is full, and every slide-th arrival after that.
func (w *Count[T]) Add(item T) bool {
	if w.size < len(w.buf) {
		w.buf[w.size] = item
		w.size++
	} else {
		w.buf[w.head] = item
		if w.head++; w.head == len(w.buf) {
			w.head = 0
		}
	}
	return w.fire.Arrive()
}

// Segments returns the window content, oldest first, as at most two
// sub-slices of the ring: older then newer. older is empty only when the
// window is. Both alias the window and are valid until the next Add.
func (w *Count[T]) Segments() (older, newer []T) {
	return w.buf[w.head:w.size], w.buf[:w.head]
}

// Snapshot appends the window content, oldest first, to dst and returns the
// extended slice. It allocates only when dst lacks capacity.
func (w *Count[T]) Snapshot(dst []T) []T {
	older, newer := w.Segments()
	return append(append(dst, older...), newer...)
}

// Len returns the number of buffered items (at most the window length).
func (w *Count[T]) Len() int { return w.size }

// Length returns the configured window length.
func (w *Count[T]) Length() int { return len(w.buf) }

// Slide returns the configured slide.
func (w *Count[T]) Slide() int { return w.fire.slide }

// Full reports whether the window holds length items.
func (w *Count[T]) Full() bool { return w.size == len(w.buf) }

// Reset empties the window.
func (w *Count[T]) Reset() {
	w.head, w.size = 0, 0
	w.fire = Trigger{length: w.fire.length, slide: w.fire.slide}
}

// InputSelectivity returns the steady-state number of items consumed per
// emitted result: the slide. This is the value the cost model uses for
// windowed operators (Section 3.4).
func (w *Count[T]) InputSelectivity() float64 { return float64(w.fire.slide) }
