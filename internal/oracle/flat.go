package oracle

import "adawave/internal/grid"

// KeyOf packs flat cell coordinates into the Key of the same cell.
func KeyOf(coords []uint16) Key {
	buf := make([]byte, 2*len(coords))
	for j, c := range coords {
		putCoord(buf, j, int(c))
	}
	return Key(buf)
}

// FromFlat converts a flat grid to the map representation.
func FromFlat(f *grid.FlatGrid) *Grid {
	g := New(f.Size)
	for i, v := range f.Vals {
		g.Cells[KeyOf(f.CellCoords(i))] = v
	}
	return g
}

// ToFlat converts a map grid to a flat grid in canonical order.
func ToFlat(g *Grid) *grid.FlatGrid {
	f := grid.NewFlat(g.Size, g.Len())
	coords := make([]uint16, g.Dim())
	for k, v := range g.Cells {
		for j := range coords {
			coords[j] = uint16(k.Coord(j))
		}
		f.Append(coords, v)
	}
	f.SortCanonical()
	return f
}
