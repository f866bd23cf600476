package contour

import (
	"bufio"
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestWriteOBJ(t *testing.T) {
	g, vals := sphereField(12)
	m, err := MarchingTetrahedra(g, vals, []float64{4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteOBJ(&buf); err != nil {
		t.Fatal(err)
	}
	nv, nf := countOBJ(t, buf.String())
	if nv != m.NumVertices() || nf != m.NumTriangles() {
		t.Errorf("OBJ has %d verts/%d faces, want %d/%d",
			nv, nf, m.NumVertices(), m.NumTriangles())
	}
	if strings.Contains(buf.String(), "vn ") {
		t.Error("normals written without ComputeNormals")
	}

	m.ComputeNormals()
	buf.Reset()
	if err := m.WriteOBJ(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "vn ") || !strings.Contains(buf.String(), "//") {
		t.Error("normals missing after ComputeNormals")
	}
}

func countOBJ(t *testing.T, s string) (verts, faces int) {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(s))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "v "):
			verts++
		case strings.HasPrefix(line, "f "):
			faces++
			// All indices must be within range (1-based).
			var a, b, c int
			rest := strings.NewReader(line[2:])
			if _, err := fmt.Fscan(rest, &a, &b, &c); err == nil {
				if a < 1 || b < 1 || c < 1 {
					t.Fatalf("non-positive OBJ index in %q", line)
				}
			}
		}
	}
	return
}

func TestWriteOBJEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Mesh{}).WriteOBJ(&buf); err != nil {
		t.Fatal(err)
	}
	if nv, nf := countOBJ(t, buf.String()); nv != 0 || nf != 0 {
		t.Errorf("empty mesh wrote %d verts/%d faces", nv, nf)
	}
}
