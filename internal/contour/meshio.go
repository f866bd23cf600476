package contour

import (
	"bufio"
	"fmt"
	"io"
)

// WriteOBJ writes the mesh in Wavefront OBJ format (positions and
// faces; normals are included when ComputeNormals has run). OBJ indices
// are 1-based.
func (m *Mesh) WriteOBJ(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# vizndp contour mesh: %d vertices, %d triangles\n",
		m.NumVertices(), m.NumTriangles())
	for _, v := range m.Vertices {
		fmt.Fprintf(bw, "v %g %g %g\n", v.X, v.Y, v.Z)
	}
	hasNormals := len(m.Normals) == len(m.Vertices) && len(m.Normals) > 0
	if hasNormals {
		for _, n := range m.Normals {
			fmt.Fprintf(bw, "vn %g %g %g\n", n.X, n.Y, n.Z)
		}
	}
	for _, t := range m.Tris {
		if hasNormals {
			fmt.Fprintf(bw, "f %d//%d %d//%d %d//%d\n",
				t[0]+1, t[0]+1, t[1]+1, t[1]+1, t[2]+1, t[2]+1)
		} else {
			fmt.Fprintf(bw, "f %d %d %d\n", t[0]+1, t[1]+1, t[2]+1)
		}
	}
	return bw.Flush()
}
