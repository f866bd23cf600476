package contour

import (
	"math/rand"
	"slices"
	"testing"

	"vizndp/internal/grid"
)

// The case table's contract. The face rule is restated here from
// geometry rather than from the generator's walk: on a face whose corner
// bits are cut by two edges there is one segment between their
// crossings; cut by four (an ambiguous face) there are two, each cutting
// off one inside corner. Every segment runs with the inside corner it
// bounds on its right as seen from outside the cube.

// cornerPos is corner c's position in the unit cube.
func cornerPos(c int) grid.Vec3 {
	return grid.Vec3{X: float64(c & 1), Y: float64(c >> 1 & 1), Z: float64(c >> 2 & 1)}
}

// edgeMid is the midpoint of edge e, where the test places its crossing.
func edgeMid(e int) grid.Vec3 {
	a := int(cubeEdgeLo[e])
	return cornerPos(a).Add(cornerPos(a | 1<<(e/4))).Scale(0.5)
}

// edgeEnds returns edge e's two corners.
func edgeEnds(e int) (int, int) {
	a := int(cubeEdgeLo[e])
	return a, a | 1<<(e/4)
}

// segment is a directed segment between the crossings on two edges.
type segment struct{ from, to int }

// faceRule returns the segments the face rule puts on face f (axis f/2,
// side f&1) of case m, sorted.
func faceRule(m, f int) []segment {
	axis, side := f/2, f&1
	normal := grid.Vec3{}
	switch axis {
	case 0:
		normal.X = float64(2*side - 1)
	case 1:
		normal.Y = float64(2*side - 1)
	default:
		normal.Z = float64(2*side - 1)
	}
	onFace := func(c int) bool { return c>>axis&1 == side }
	inside := func(c int) bool { return m>>c&1 != 0 }
	var cut []int // the face's edges whose ends differ
	for e := 0; e < 12; e++ {
		a, b := edgeEnds(e)
		if onFace(a) && onFace(b) && inside(a) != inside(b) {
			cut = append(cut, e)
		}
	}
	// orient directs the segment between edges e1 and e2 so the inside
	// corner c lies on its right seen from outside: right of d is d x n.
	orient := func(e1, e2, c int) segment {
		p1, p2 := edgeMid(e1), edgeMid(e2)
		if p2.Sub(p1).Cross(normal).Dot(cornerPos(c).Sub(p1)) > 0 {
			return segment{e1, e2}
		}
		return segment{e2, e1}
	}
	var segs []segment
	switch len(cut) {
	case 2:
		a, b := edgeEnds(cut[0])
		c := a
		if !inside(a) {
			c = b
		}
		segs = append(segs, orient(cut[0], cut[1], c))
	case 4:
		for c := 0; c < 8; c++ {
			if !onFace(c) || !inside(c) {
				continue
			}
			var at []int // the two cut edges at the inside corner c
			for _, e := range cut {
				if a, b := edgeEnds(e); a == c || b == c {
					at = append(at, e)
				}
			}
			segs = append(segs, orient(at[0], at[1], c))
		}
	}
	slices.SortFunc(segs, func(x, y segment) int { return (x.from*12 + x.to) - (y.from*12 + y.to) })
	return segs
}

// caseBoundary returns the directed boundary of case m's triangles:
// every triangle side not cancelled by the same side run the other way.
func caseBoundary(m int) map[segment]int {
	count := make(map[segment]int)
	edges := cubeTris[m]
	for t := 0; t < len(edges); t += 3 {
		for i := 0; i < 3; i++ {
			s := segment{int(edges[t+i]), int(edges[t+(i+1)%3])}
			if count[segment{s.to, s.from}] > 0 {
				count[segment{s.to, s.from}]--
			} else {
				count[s]++
			}
		}
	}
	for s, n := range count {
		if n == 0 {
			delete(count, s)
		}
	}
	return count
}

// sharedFace returns the face both edges lie on, or -1.
func sharedFace(e1, e2 int) int {
	for f := 0; f < 6; f++ {
		axis, side := f/2, f&1
		a1, b1 := edgeEnds(e1)
		a2, b2 := edgeEnds(e2)
		if a1>>axis&1 == side && b1>>axis&1 == side && a2>>axis&1 == side && b2>>axis&1 == side {
			return f
		}
	}
	return -1
}

// TestContourTableFaceRule is the table's watertightness check, over all
// 256 cases and 6 faces: the segments a case's triangles put on a face
// are exactly the face rule's for that face's four corner bits. Two
// cells sharing a face see the same four bits, so their surfaces meet
// along the same segments.
func TestContourTableFaceRule(t *testing.T) {
	for m := 0; m < 256; m++ {
		onFace := make([][]segment, 6)
		for s, n := range caseBoundary(m) {
			if n != 1 {
				t.Fatalf("case %#02x: boundary segment %v runs %d times", m, s, n)
			}
			f := sharedFace(s.from, s.to)
			if f < 0 {
				t.Fatalf("case %#02x: boundary segment %v crosses the cube's interior", m, s)
			}
			onFace[f] = append(onFace[f], s)
		}
		for f := 0; f < 6; f++ {
			got := onFace[f]
			slices.SortFunc(got, func(x, y segment) int { return (x.from*12 + x.to) - (y.from*12 + y.to) })
			if want := faceRule(m, f); !slices.Equal(got, want) {
				t.Errorf("case %#02x face %d: triangles put %v on the face, the face rule %v", m, f, got, want)
			}
		}
	}
}

// TestContourTableLoopsClose checks each case's triangles as a surface
// patch: they use exactly the cut edges, no triangle repeats an edge,
// and their boundary closes on the cube's surface — every crossing is
// entered and left once, by segments that lie on faces.
func TestContourTableLoopsClose(t *testing.T) {
	maxTris := 0
	for m := 0; m < 256; m++ {
		edges := cubeTris[m]
		if len(edges)%3 != 0 {
			t.Fatalf("case %#02x: %d edge entries", m, len(edges))
		}
		maxTris = max(maxTris, len(edges)/3)
		var used uint16
		for i := 0; i < len(edges); i += 3 {
			a, b, c := edges[i], edges[i+1], edges[i+2]
			if a == b || b == c || a == c {
				t.Fatalf("case %#02x: degenerate triangle %v", m, edges[i:i+3])
			}
			used |= 1<<a | 1<<b | 1<<c
		}
		if used != cubeCuts(m, 255) {
			t.Errorf("case %#02x: triangles use edges %012b, cut edges are %012b", m, used, cubeCuts(m, 255))
		}
		in, out := make(map[int]int), make(map[int]int)
		for s := range caseBoundary(m) {
			if sharedFace(s.from, s.to) < 0 {
				t.Errorf("case %#02x: boundary segment %v off the cube's surface", m, s)
			}
			out[s.from]++
			in[s.to]++
		}
		for e := 0; e < 12; e++ {
			want := int(cubeCuts(m, 255) >> e & 1)
			if in[e] != want || out[e] != want {
				t.Errorf("case %#02x: crossing %d entered %d and left %d times, want %d", m, e, in[e], out[e], want)
			}
		}
		if m == 0 || m == 255 {
			if len(edges) != 0 {
				t.Errorf("case %#02x emits triangles", m)
			}
		}
	}
	if maxTris > 5 {
		t.Errorf("a case emits %d triangles; a loop over at most 12 crossings needs at most 5", maxTris)
	}
}

// TestContourTableFill pins the absent-corner rule on present sets the
// pre-filter can ship: when the present corners' sides agree with a
// side assignment in which every absent corner matches all its
// neighbours, the fill restores that assignment exactly. Any other fill
// keeps the present sides and crosses no edge with an absent end, or is
// 0, a case with no triangles.
func TestContourTableFill(t *testing.T) {
	for pm := 0; pm < 256; pm++ {
		for in := 0; in < 256; in++ {
			if in&^pm != 0 {
				continue
			}
			got := int(cubeFill[pm][in])
			if got != 0 && (got&pm != in || cubeCuts(got, 255) != cubeCuts(got, pm)) {
				t.Fatalf("present %08b inside %08b: filled to %08b", pm, in, got)
			}
		}
	}
	checked := 0
	for pm := 1; pm < 256; pm++ {
		for full := 0; full < 256; full++ {
			ok := true
			for c := 0; c < 8 && ok; c++ {
				if pm>>c&1 != 0 {
					continue
				}
				for axis := 0; axis < 3; axis++ {
					if full>>c&1 != full>>(c^1<<axis)&1 {
						ok = false
					}
				}
			}
			if !ok {
				continue
			}
			checked++
			if got := int(cubeFill[pm][full&pm]); got != full {
				t.Fatalf("present %08b inside %08b: filled to %08b, want %08b", pm, full&pm, got, full)
			}
		}
	}
	if checked == 0 {
		t.Fatal("vacuous")
	}
}

// TestContourClosedFieldsWatertight marches random closed fields — noise
// inside, a border above every isovalue — where every ambiguous face
// configuration occurs: the surface has no boundary edge.
func TestContourClosedFieldsWatertight(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	g := grid.NewUniform(40, 40, 40)
	for field := 0; field < 20; field++ {
		vals := make([]float32, g.NumPoints())
		for k := 0; k < 40; k++ {
			for j := 0; j < 40; j++ {
				for i := 0; i < 40; i++ {
					v := float32(2)
					if i > 0 && j > 0 && k > 0 && i < 39 && j < 39 && k < 39 {
						v = rng.Float32()
					}
					vals[g.PointIndex(i, j, k)] = v
				}
			}
		}
		for _, iso := range []float64{0.3, 0.6} {
			m, err := MarchingTetrahedra(g, vals, []float64{iso})
			if err != nil {
				t.Fatal(err)
			}
			if m.NumTriangles() == 0 {
				t.Fatalf("field %d iso %v: no triangles", field, iso)
			}
			if be := m.BoundaryEdges(); be != 0 {
				t.Errorf("field %d iso %v: %d boundary edges, want 0", field, iso, be)
			}
		}
	}
}
