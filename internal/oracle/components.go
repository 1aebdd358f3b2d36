package oracle

import (
	"fmt"

	"adawave/internal/grid"
)

// maxFullDim bounds Full connectivity at the same dimension as the flat
// labeling: 3⁸−1 = 6560 neighbor offsets per cell.
const maxFullDim = 8

// Components labels the occupied cells of g with consecutive component ids
// starting at 0, using breadth-first search over the chosen connectivity.
// Iteration order is made deterministic by visiting cells in sorted key
// order, so the same grid always yields the same labeling (the paper's
// order-insensitivity property).
func Components(g *Grid, conn grid.Connectivity) (map[Key]int, error) {
	if conn == grid.Full && g.Dim() > maxFullDim {
		return nil, fmt.Errorf("grid: Full connectivity limited to %d dimensions, grid has %d", maxFullDim, g.Dim())
	}
	labels := make(map[Key]int, g.Len())
	// Neighbor candidates are packed into a reused buffer; interning over
	// the grid's own keys turns each probe into an allocation-free map
	// lookup that yields the retained Key — a candidate missing from the
	// intern map is simply unoccupied.
	intern := make(map[Key]Key, g.Len())
	for k := range g.Cells {
		intern[k] = k
	}
	next := 0
	var queue []Key
	d := g.Dim()
	off := make([]int, d)
	curCoords := make([]int, d)
	buf := make([]byte, 2*d)
	// probe checks the candidate currently packed in buf; hoisted out of
	// the BFS loops so the closure is allocated once per call.
	probe := func() {
		nb, ok := intern[Key(buf)]
		if !ok {
			return
		}
		if _, seen := labels[nb]; seen {
			return
		}
		labels[nb] = next
		queue = append(queue, nb)
	}
	for _, start := range g.SortedKeys() {
		if _, seen := labels[start]; seen {
			continue
		}
		labels[start] = next
		queue = append(queue[:0], start)
		for len(queue) > 0 {
			cur := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			switch conn {
			case grid.Faces:
				copy(buf, cur)
				for j := 0; j < d; j++ {
					c := cur.Coord(j)
					if c > 0 {
						putCoord(buf, j, c-1)
						probe()
					}
					if c+1 < g.Size[j] {
						putCoord(buf, j, c+1)
						probe()
					}
					putCoord(buf, j, c)
				}
			case grid.Full:
				for j := 0; j < d; j++ {
					curCoords[j] = cur.Coord(j)
					off[j] = -1
				}
				for {
					// Skip the all-zero offset.
					allZero := true
					for _, o := range off {
						if o != 0 {
							allZero = false
							break
						}
					}
					if !allZero && packOffset(buf, curCoords, off, g.Size) {
						probe()
					}
					// Advance mixed-radix counter over {-1,0,1}ᵈ.
					j := 0
					for ; j < len(off); j++ {
						off[j]++
						if off[j] <= 1 {
							break
						}
						off[j] = -1
					}
					if j == len(off) {
						break
					}
				}
			}
		}
		next++
	}
	return labels, nil
}

// packOffset packs coords+off into the key buffer buf, reporting false if
// the shifted cell falls outside the grid.
func packOffset(buf []byte, coords, off, size []int) bool {
	for j, o := range off {
		c := coords[j] + o
		if c < 0 || c >= size[j] {
			return false
		}
		putCoord(buf, j, c)
	}
	return true
}
