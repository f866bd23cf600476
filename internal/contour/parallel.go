package contour

import (
	"runtime"
	"sync"

	"vizndp/internal/grid"
)

// MarchingTetrahedraParallel extracts isosurfaces like
// MarchingTetrahedraGeom but sweeps cell-layer slabs concurrently.
// Workers run the same kernel over their slab, each with its own edge
// table; a sequential merge then stitches the slab meshes in slab order,
// unifying the vertices two slabs both created on the point layer they
// share. Because slabs merge in the order the serial sweep visits them
// and a shared vertex is recognised by its edge key, the result is
// bit-identical to the serial filter — enforced by tests and usable
// interchangeably for the NDP post-filter.
//
// workers <= 0 uses GOMAXPROCS.
func MarchingTetrahedraParallel(g Geometry, values []float32, isovalues []float64, workers int) (*Mesh, error) {
	dims, err := validateMarchInputs(g, values, isovalues)
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cellLayers := dims.Z - 1
	if workers > cellLayers {
		workers = cellLayers
	}
	if workers <= 1 {
		return MarchingTetrahedraGeom(g, values, isovalues)
	}

	type slab struct {
		k0, k1 int
		mesh   *Mesh
		keys   []uint64 // edge key of each local vertex, in index order
	}
	present := nonNaNBits(values)
	slabs := make([]slab, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		slabs[w].k0 = cellLayers * w / workers
		slabs[w].k1 = cellLayers * (w + 1) / workers
		wg.Add(1)
		go func(s *slab) {
			defer wg.Done()
			s.mesh, s.keys = marchLayers(g, values, present, isovalues, s.k0, s.k1, true)
		}(&slabs[w])
	}
	wg.Wait()

	// Sequential merge in slab order. Two slabs can both hold a vertex
	// only on an edge lying in the point layer between them, so those are
	// the only keys looked up: top[e] is the merged index, plus one, of
	// the vertex the previous slab put on in-layer edge e of its top
	// layer, which is this slab's bottom layer.
	nv, nt := 0, 0
	for w := range slabs {
		nv, nt = nv+len(slabs[w].mesh.Vertices), nt+len(slabs[w].mesh.Tris)
	}
	out := &Mesh{Vertices: make([]grid.Vec3, 0, nv), Tris: make([][3]int32, 0, nt)}
	layer := dims.X * dims.Y
	inLayerEdge := func(key uint64, k int) (int, bool) {
		point, dir, q := int(key>>11), int(key>>8&7), int(key&0xff)
		if dir > 3 || point/layer != k {
			return 0, false
		}
		return ((point-k*layer)*3+dir-1)*len(isovalues) + q, true
	}
	var top, bottom []int32
	for w := range slabs {
		s := &slabs[w]
		top, bottom = make([]int32, 3*layer*len(isovalues)), top
		remap := make([]int32, len(s.mesh.Vertices))
		for li, key := range s.keys {
			if e, ok := inLayerEdge(key, s.k0); ok && w > 0 && bottom[e] != 0 {
				remap[li] = bottom[e] - 1
				continue
			}
			gi := int32(len(out.Vertices))
			out.Vertices = append(out.Vertices, s.mesh.Vertices[li])
			remap[li] = gi
			if e, ok := inLayerEdge(key, s.k1); ok {
				top[e] = gi + 1
			}
		}
		for _, t := range s.mesh.Tris {
			out.Tris = append(out.Tris, [3]int32{remap[t[0]], remap[t[1]], remap[t[2]]})
		}
	}
	return out, nil
}
