package window

import (
	"testing"
	"testing/quick"
)

func TestNewCountErrors(t *testing.T) {
	if _, err := NewCount[int](0, 1); err == nil {
		t.Error("length 0 accepted")
	}
	if _, err := NewCount[int](5, 0); err == nil {
		t.Error("slide 0 accepted")
	}
	if _, err := NewCount[int](-1, -1); err == nil {
		t.Error("negative sizes accepted")
	}
}

func TestFirstFireWhenFull(t *testing.T) {
	w := MustCount[int](3, 2)
	if w.Add(1) || w.Add(2) {
		t.Fatal("fired before full")
	}
	if !w.Add(3) {
		t.Fatal("did not fire when full")
	}
	got := w.Snapshot(nil)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("snapshot = %v, want %v", got, want)
		}
	}
}

func TestSlideCadence(t *testing.T) {
	w := MustCount[int](3, 2)
	fires := 0
	for i := 1; i <= 11; i++ {
		if w.Add(i) {
			fires++
		}
	}
	// Fires at arrivals 3, 5, 7, 9, 11.
	if fires != 5 {
		t.Fatalf("fires = %d, want 5", fires)
	}
	got := w.Snapshot(nil)
	want := []int{9, 10, 11}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("snapshot = %v, want %v", got, want)
		}
	}
}

func TestSlideLargerThanLength(t *testing.T) {
	w := MustCount[int](2, 5)
	fireAt := []int{}
	for i := 1; i <= 14; i++ {
		if w.Add(i) {
			fireAt = append(fireAt, i)
		}
	}
	// Full at 2, then every 5 arrivals: 7, 12.
	want := []int{2, 7, 12}
	if len(fireAt) != len(want) {
		t.Fatalf("fired at %v, want %v", fireAt, want)
	}
	for i := range want {
		if fireAt[i] != want[i] {
			t.Fatalf("fired at %v, want %v", fireAt, want)
		}
	}
}

func TestTumbling(t *testing.T) {
	// length == slide: non-overlapping windows.
	w := MustCount[int](4, 4)
	fires := 0
	for i := 0; i < 16; i++ {
		if w.Add(i) {
			fires++
		}
	}
	if fires != 4 {
		t.Fatalf("fires = %d, want 4", fires)
	}
}

func TestReset(t *testing.T) {
	w := MustCount[int](2, 1)
	w.Add(1)
	w.Add(2)
	w.Reset()
	if w.Len() != 0 || w.Full() {
		t.Fatal("reset did not empty the window")
	}
	if w.Add(3) {
		t.Fatal("fired immediately after reset")
	}
	if !w.Add(4) {
		t.Fatal("did not fire when refilled")
	}
}

func TestAccessors(t *testing.T) {
	w := MustCount[string](10, 3)
	if w.Length() != 10 || w.Slide() != 3 || w.InputSelectivity() != 3 {
		t.Fatalf("accessors: %d %d %v", w.Length(), w.Slide(), w.InputSelectivity())
	}
	w.Add("a")
	if w.Len() != 1 {
		t.Fatalf("Len = %d", w.Len())
	}
	got := w.Snapshot(make([]string, 0, 10))
	if len(got) != 1 || got[0] != "a" {
		t.Fatalf("snapshot = %v", got)
	}
}

// Property: after n adds the snapshot always holds the last min(n, length)
// items in order, and the fire count matches the analytic formula
// 1 + floor((n-length)/slide) for n >= length.
func TestCountProperties(t *testing.T) {
	f := func(lenRaw, slideRaw uint8, nRaw uint16) bool {
		length := 1 + int(lenRaw)%20
		slide := 1 + int(slideRaw)%25
		n := int(nRaw) % 400
		w := MustCount[int](length, slide)
		fires := 0
		for i := 0; i < n; i++ {
			if w.Add(i) {
				fires++
			}
		}
		wantFires := 0
		if n >= length {
			wantFires = 1 + (n-length)/slide
		}
		if fires != wantFires {
			return false
		}
		snap := w.Snapshot(nil)
		wantLen := n
		if wantLen > length {
			wantLen = length
		}
		if len(snap) != wantLen {
			return false
		}
		for i, v := range snap {
			if v != n-wantLen+i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestWindowSegmentsMatchSnapshot: Segments is the window content oldest
// first, split at the ring's wrap point, across fills, wraps and Resets;
// older is empty only when the window is, and Snapshot is the two
// segments concatenated.
func TestWindowSegmentsMatchSnapshot(t *testing.T) {
	f := func(lenRaw, slideRaw uint8, nRaw, resetRaw uint16) bool {
		length := 1 + int(lenRaw)%20
		slide := 1 + int(slideRaw)%25
		n := int(nRaw) % 300
		reset := int(resetRaw) % 300
		w := MustCount[int](length, slide)
		var fed []int // everything added since the last Reset
		for i := 0; i < n; i++ {
			if i == reset {
				w.Reset()
				fed = fed[:0]
			}
			w.Add(i)
			fed = append(fed, i)
			want := fed
			if len(want) > length {
				want = want[len(want)-length:]
			}
			older, newer := w.Segments()
			if len(older) == 0 && len(want) > 0 {
				return false
			}
			got := append(append([]int(nil), older...), newer...)
			snap := w.Snapshot([]int{-1})
			if len(got) != len(want) || len(snap) != len(want)+1 || snap[0] != -1 {
				return false
			}
			for j := range want {
				if got[j] != want[j] || snap[j+1] != want[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
