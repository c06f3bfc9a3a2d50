package tabu

import (
	"testing"
	"testing/quick"
)

func TestAddAndContains(t *testing.T) {
	l := NewList(3)
	l.Add(1)
	l.Add(2)
	if !l.Contains(1) || !l.Contains(2) || l.Contains(3) {
		t.Fatal("Contains wrong after two adds")
	}
	l.Add(3)
	l.Add(4) // evicts 1
	if l.Contains(1) {
		t.Error("oldest attribute not evicted at tenure")
	}
	if !l.Contains(2) || !l.Contains(3) || !l.Contains(4) {
		t.Error("recent attributes lost")
	}
	if l.Len() != 3 {
		t.Errorf("Len = %d, want 3", l.Len())
	}
}

func TestDuplicateAttributes(t *testing.T) {
	l := NewList(3)
	l.Add(7)
	l.Add(7)
	l.Add(8)
	l.Add(9) // evicts first 7; second 7 still present
	if !l.Contains(7) {
		t.Error("duplicate attribute forgotten too early")
	}
	l.Add(10) // evicts second 7
	if l.Contains(7) {
		t.Error("attribute should be fully forgotten")
	}
}

func TestPanicsOnBadTenure(t *testing.T) {
	for name, f := range map[string]func(){
		"NewList(0)":  func() { NewList(0) },
		"NewList(-1)": func() { NewList(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestTenureWindowProperty(t *testing.T) {
	// After any sequence of adds, exactly the last min(len, tenure)
	// attributes are tabu.
	f := func(attrs []uint8, rawTenure uint8) bool {
		tenure := 1 + int(rawTenure%10)
		l := NewList(tenure)
		for _, a := range attrs {
			l.Add(Attribute(a))
		}
		start := len(attrs) - tenure
		if start < 0 {
			start = 0
		}
		window := map[Attribute]bool{}
		for _, a := range attrs[start:] {
			window[Attribute(a)] = true
		}
		for v := 0; v < 256; v++ {
			if l.Contains(Attribute(v)) != window[Attribute(v)] {
				return false
			}
		}
		return l.Len() == len(attrs)-start
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAddContains(b *testing.B) {
	l := NewList(20)
	for i := 0; i < b.N; i++ {
		l.Add(Attribute(i))
		l.Contains(Attribute(i - 10))
	}
}
