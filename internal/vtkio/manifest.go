package vtkio

import (
	"encoding/json"
	"fmt"

	"vizndp/internal/grid"
)

// A brick manifest is the small JSON sidecar a bricked dataset carries
// next to its per-brick .vnd objects: the parent grid, the bricking
// (counts + ghost), and one entry per brick naming its extents and its
// object key relative to the per-step prefix. Clients read it once, then
// scatter per-brick fetches over their replicas; which replica a brick
// goes to is the client's rule, not the manifest's. Manifests written
// with a per-entry "shard" or "crc" key still decode: JSON decoding
// ignores both.
const (
	// ManifestMagic guards against feeding an arbitrary JSON document to
	// a sharded client.
	ManifestMagic = "vnd-bricks"
	// ManifestVersion is bumped on incompatible manifest layout changes.
	ManifestVersion = 1
)

// ManifestBrick is one brick's entry. The geometry fields mirror
// grid.Brick so the manifest is self-describing; Validate pins them to
// what the spec derives, so a hand-edited extent cannot desynchronize
// the merge.
type ManifestBrick struct {
	ID      int    `json:"id"`
	Index   [3]int `json:"index"`
	CellLo  [3]int `json:"cellLo"`
	CellHi  [3]int `json:"cellHi"`
	PointLo [3]int `json:"pointLo"`
	PointHi [3]int `json:"pointHi"`
	// Key is the brick object's name relative to the fetch prefix (the
	// per-timestep directory), e.g. "brick0003.vnd".
	Key string `json:"key"`
}

// Manifest describes one bricked dataset.
type Manifest struct {
	Magic   string     `json:"magic"`
	Version int        `json:"version"`
	Dims    [3]int     `json:"dims"`
	Origin  [3]float64 `json:"origin"`
	Spacing [3]float64 `json:"spacing"`
	// Bricks is the brick grid (counts per axis); Ghost the cell layers
	// each brick adds at interior faces.
	Bricks [3]int `json:"bricks"`
	Ghost  int    `json:"ghost"`
	// Arrays lists the point arrays every brick object carries.
	Arrays  []string        `json:"arrays,omitempty"`
	Entries []ManifestBrick `json:"entries"`
}

// The store layout, which every writer, the scrubber and every gather
// share. Timestep t of a dataset stored in one codec is ObjectKey; a
// bricked dataset keeps under a root its manifest, ManifestName, and one
// directory per timestep, StepDir, holding the bricks by BrickKey.
const (
	// ManifestName is a brick manifest's object name under its root.
	ManifestName = "manifest.json"
	// StepDirPrefix begins every timestep's object and directory name.
	StepDirPrefix = "ts"
)

// Root is the key prefix of a dataset stored in one codec, or in a
// variant's own directory, e.g. "nyx/qlz4-0.01/".
func Root(dataset, codecDir string) string { return dataset + "/" + codecDir + "/" }

// ObjectKey names timestep step of a dataset, e.g. "asteroid/lz4/ts00042.vnd".
func ObjectKey(dataset, codecDir string, step int) string {
	return Root(dataset, codecDir) + stepName(step) + ".vnd"
}

// StepDir is timestep step's brick directory under root, "<root>ts00042/":
// the prefix a gather fetches the manifest's keys under.
func StepDir(root string, step int) string { return root + stepName(step) + "/" }

func stepName(step int) string { return StepDirPrefix + fmt.Sprintf("%05d", step) }

// BrickKey is the default object name for brick id within its per-step
// prefix.
func BrickKey(id int) string { return fmt.Sprintf("brick%04d.vnd", id) }

// WriteBricks cuts ds, timestep step of the dataset man describes, into
// its bricks and hands each to put under StepDir(root, step) and the
// BrickKey BuildManifest gives its entry, stopping at the first error.
func WriteBricks(man *Manifest, ds *grid.Dataset, root string, step int, put func(key string, brick *grid.Dataset) error) error {
	bricks, err := man.GridBricks()
	if err != nil {
		return err
	}
	for _, b := range bricks {
		sub, err := grid.ExtractBrick(ds, b)
		if err != nil {
			return err
		}
		if err := put(StepDir(root, step)+BrickKey(b.ID), sub); err != nil {
			return err
		}
	}
	return nil
}

// BuildManifest derives the manifest for bricking g with spec. Arrays
// names the point arrays each brick object will carry.
func BuildManifest(g *grid.Uniform, spec grid.BrickSpec, arrays []string) (*Manifest, error) {
	bricks, err := spec.Bricks(g.Dims)
	if err != nil {
		return nil, err
	}
	m := &Manifest{
		Magic:   ManifestMagic,
		Version: ManifestVersion,
		Dims:    [3]int{g.Dims.X, g.Dims.Y, g.Dims.Z},
		Origin:  [3]float64{g.Origin.X, g.Origin.Y, g.Origin.Z},
		Spacing: [3]float64{g.Spacing.X, g.Spacing.Y, g.Spacing.Z},
		Bricks:  [3]int{spec.NX, spec.NY, spec.NZ},
		Ghost:   spec.Ghost,
		Arrays:  append([]string(nil), arrays...),
	}
	for _, b := range bricks {
		m.Entries = append(m.Entries, ManifestBrick{
			ID: b.ID, Index: b.Index,
			CellLo: b.CellLo, CellHi: b.CellHi,
			PointLo: b.PointLo, PointHi: b.PointHi,
			Key: BrickKey(b.ID),
		})
	}
	return m, nil
}

// Grid reconstructs the parent grid the manifest describes.
func (m *Manifest) Grid() *grid.Uniform {
	return &grid.Uniform{
		Dims:    grid.Dims{X: m.Dims[0], Y: m.Dims[1], Z: m.Dims[2]},
		Origin:  grid.Vec3{X: m.Origin[0], Y: m.Origin[1], Z: m.Origin[2]},
		Spacing: grid.Vec3{X: m.Spacing[0], Y: m.Spacing[1], Z: m.Spacing[2]},
	}
}

// Spec reconstructs the bricking spec.
func (m *Manifest) Spec() grid.BrickSpec {
	return grid.BrickSpec{NX: m.Bricks[0], NY: m.Bricks[1], NZ: m.Bricks[2], Ghost: m.Ghost}
}

// GridBricks re-derives the grid.Brick list the manifest's entries must
// match; callers use it for local index math after Validate has pinned
// the entries to it.
func (m *Manifest) GridBricks() ([]grid.Brick, error) {
	return m.Spec().Bricks(m.Grid().Dims)
}

// Validate checks the manifest's internal consistency: magic, version,
// a valid parent grid, and entries whose geometry matches exactly what
// the (dims, bricks, ghost) triple derives — so the merge's index math
// and the stored extents can never disagree. Keys must be non-empty and
// unique.
func (m *Manifest) Validate() error {
	if m.Magic != ManifestMagic {
		return fmt.Errorf("vtkio: manifest magic %q, want %q", m.Magic, ManifestMagic)
	}
	if m.Version != ManifestVersion {
		return fmt.Errorf("vtkio: manifest version %d, want %d", m.Version, ManifestVersion)
	}
	g := m.Grid()
	if err := g.Validate(); err != nil {
		return fmt.Errorf("vtkio: manifest grid: %w", err)
	}
	want, err := m.Spec().Bricks(g.Dims)
	if err != nil {
		return fmt.Errorf("vtkio: manifest bricking: %w", err)
	}
	if len(m.Entries) != len(want) {
		return fmt.Errorf("vtkio: manifest has %d entries, bricking derives %d", len(m.Entries), len(want))
	}
	keys := make(map[string]bool, len(m.Entries))
	for i, e := range m.Entries {
		w := want[i]
		if e.ID != w.ID || e.Index != w.Index ||
			e.CellLo != w.CellLo || e.CellHi != w.CellHi ||
			e.PointLo != w.PointLo || e.PointHi != w.PointHi {
			return fmt.Errorf("vtkio: manifest entry %d geometry disagrees with derived brick %d", i, w.ID)
		}
		if e.Key == "" {
			return fmt.Errorf("vtkio: manifest entry %d has no key", i)
		}
		if keys[e.Key] {
			return fmt.Errorf("vtkio: manifest entry %d duplicates key %q", i, e.Key)
		}
		keys[e.Key] = true
	}
	return nil
}

// EncodeManifest serializes a validated manifest as indented JSON.
func EncodeManifest(m *Manifest) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// DecodeManifest parses and validates a manifest document.
func DecodeManifest(data []byte) (*Manifest, error) {
	m := &Manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("vtkio: decoding manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
