package sparse

import (
	"testing"
	"testing/quick"
)

func TestAddGet(t *testing.T) {
	m := NewMatrix(4)
	if err := m.Add(1, 2, 5); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if got := m.Get(1, 2); got != 8 {
		t.Errorf("Get = %d, want 8", got)
	}
	if got := m.Get(2, 1); got != 0 {
		t.Errorf("Get(2,1) = %d, want 0", got)
	}
	if m.Ranks() != 4 {
		t.Errorf("Ranks = %d", m.Ranks())
	}
}

func TestAddBounds(t *testing.T) {
	m := NewMatrix(4)
	for _, c := range [][2]int{{-1, 0}, {0, -1}, {4, 0}, {0, 4}} {
		if err := m.Add(c[0], c[1], 1); err == nil {
			t.Errorf("Add(%d,%d) accepted", c[0], c[1])
		}
	}
	if got := m.Get(-1, 0); got != 0 {
		t.Errorf("out-of-range Get = %d", got)
	}
}

// An entry driven back to zero, by Add or by AddInto, leaves the matrix:
// no traversal may report it.
func TestZeroEntriesPruned(t *testing.T) {
	requireOnly := func(t *testing.T, m *Matrix, want Entry) {
		t.Helper()
		if m.NumNonZero() != 1 {
			t.Errorf("NumNonZero = %d after cancelling, want 1", m.NumNonZero())
		}
		if es := m.Entries(); len(es) != 1 || es[0] != want {
			t.Errorf("Entries = %v, want [%v]", es, want)
		}
		var seen []Entry
		m.Each(func(src, dst int, n int64) { seen = append(seen, Entry{src, dst, n}) })
		if len(seen) != 1 || seen[0] != want {
			t.Errorf("Each visited %v, want [%v]", seen, want)
		}
	}
	t.Run("Add", func(t *testing.T) {
		m := NewMatrix(4)
		_ = m.Add(0, 1, 5)
		_ = m.Add(2, 3, 1)
		_ = m.Add(0, 1, -5)
		requireOnly(t, m, Entry{2, 3, 1})
	})
	t.Run("AddInto", func(t *testing.T) {
		dst, src := NewMatrix(4), NewMatrix(4)
		_ = dst.Add(0, 1, 5)
		_ = dst.Add(2, 3, 1)
		_ = src.Add(0, 1, -5)
		if err := src.AddInto(dst); err != nil {
			t.Fatal(err)
		}
		requireOnly(t, dst, Entry{2, 3, 1})
	})
}

// Each visits exactly the entries Entries lists, each once.
func TestEachMatchesEntries(t *testing.T) {
	m := NewMatrix(16)
	for i := 0; i < 40; i++ {
		_ = m.Add(i*7%16, i*5%16, int64(i%3+1))
	}
	want := map[Entry]bool{}
	for _, e := range m.Entries() {
		want[e] = true
	}
	n := 0
	m.Each(func(src, dst int, count int64) {
		n++
		if !want[Entry{src, dst, count}] {
			t.Errorf("Each visited (%d,%d)=%d, not an entry", src, dst, count)
		}
	})
	if n != len(want) {
		t.Errorf("Each visited %d entries, want %d", n, len(want))
	}
}

func TestEntriesSorted(t *testing.T) {
	m := NewMatrix(8)
	_ = m.Add(5, 1, 1)
	_ = m.Add(0, 7, 2)
	_ = m.Add(5, 0, 3)
	_ = m.Add(0, 2, 4)
	es := m.Entries()
	if len(es) != 4 {
		t.Fatalf("Entries len = %d", len(es))
	}
	for i := 1; i < len(es); i++ {
		a, b := es[i-1], es[i]
		if a.Src > b.Src || (a.Src == b.Src && a.Dst >= b.Dst) {
			t.Fatalf("entries not sorted: %+v before %+v", a, b)
		}
	}
}

func TestRowColSumsAndTotal(t *testing.T) {
	m := NewMatrix(4)
	_ = m.Add(0, 1, 3)
	_ = m.Add(0, 2, 4)
	_ = m.Add(3, 0, 5)
	if got := m.RowSum(0); got != 7 {
		t.Errorf("RowSum(0) = %d", got)
	}
	if got := m.ColSum(0); got != 5 {
		t.Errorf("ColSum(0) = %d", got)
	}
	if got := m.Total(); got != 12 {
		t.Errorf("Total = %d", got)
	}
}

func TestAddInto(t *testing.T) {
	a, b := NewMatrix(4), NewMatrix(4)
	_ = a.Add(0, 1, 1)
	_ = b.Add(0, 1, 2)
	_ = b.Add(2, 3, 7)
	if err := b.AddInto(a); err != nil {
		t.Fatal(err)
	}
	if a.Get(0, 1) != 3 || a.Get(2, 3) != 7 {
		t.Errorf("AddInto result wrong: %v", a.Entries())
	}
	if err := NewMatrix(3).AddInto(a); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries(4)
	m0 := s.Append()
	_ = m0.Add(0, 1, 2)
	m1 := s.Append()
	_ = m1.Add(1, 0, 3)
	_ = m1.Add(0, 1, 1)
	if s.Frames() != 2 || s.Ranks() != 4 {
		t.Fatalf("Frames/Ranks = %d/%d", s.Frames(), s.Ranks())
	}
	totals := s.TotalPerFrame()
	if totals[0] != 2 || totals[1] != 4 {
		t.Errorf("TotalPerFrame = %v", totals)
	}
	agg := s.Aggregate()
	if agg.Get(0, 1) != 3 || agg.Get(1, 0) != 3 {
		t.Errorf("Aggregate wrong: %v", agg.Entries())
	}
	if s.At(0) != m0 {
		t.Error("At(0) is not the appended matrix")
	}
}

func TestTotalMatchesEntriesProperty(t *testing.T) {
	f := func(adds []struct {
		Src, Dst uint8
		N        int16
	}) bool {
		m := NewMatrix(256)
		for _, a := range adds {
			if err := m.Add(int(a.Src), int(a.Dst), int64(a.N)); err != nil {
				return false
			}
		}
		var sum int64
		for _, e := range m.Entries() {
			sum += e.Count
		}
		return sum == m.Total()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
