package oracle

import "testing"

func TestKeyRoundTrip(t *testing.T) {
	cases := [][]int{{0}, {1, 2}, {65535, 0, 123}, {7, 7, 7, 7, 7, 7, 7, 7, 7, 7}}
	for _, coords := range cases {
		k := MakeKey(coords)
		if k.Dim() != len(coords) {
			t.Fatalf("Dim = %d, want %d", k.Dim(), len(coords))
		}
		back := k.Coords()
		for j := range coords {
			if back[j] != coords[j] || k.Coord(j) != coords[j] {
				t.Fatalf("round trip failed for %v: got %v", coords, back)
			}
		}
	}
}

func TestKeyWith(t *testing.T) {
	k := MakeKey([]int{3, 5, 9})
	k2 := k.With(1, 300)
	if k2.Coord(0) != 3 || k2.Coord(1) != 300 || k2.Coord(2) != 9 {
		t.Fatalf("With produced %v", k2.Coords())
	}
	// Original unchanged.
	if k.Coord(1) != 5 {
		t.Fatal("With mutated the original key")
	}
}

func TestKeyRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range coordinate should panic")
		}
	}()
	MakeKey([]int{70000})
}

func TestShiftKey(t *testing.T) {
	k := MakeKey([]int{12, 7})
	if s := Key(AppendShiftedKey(nil, k, 1)); s.Coord(0) != 6 || s.Coord(1) != 3 {
		t.Fatalf("shift 1 = %v", s.Coords())
	}
	if s := Key(AppendShiftedKey(nil, k, 2)); s.Coord(0) != 3 || s.Coord(1) != 1 {
		t.Fatalf("shift 2 = %v", s.Coords())
	}
}
