package grid

import (
	"fmt"
	"math"
)

// Field is a named scalar array over the points of a grid. Values are
// float32, matching the paper's datasets (Table I lists every array as
// float).
type Field struct {
	Name   string
	Values []float32
}

// NewField allocates a zero-filled field with n values.
func NewField(name string, n int) *Field {
	return &Field{Name: name, Values: make([]float32, n)}
}

// Len returns the number of values in the field.
func (f *Field) Len() int { return len(f.Values) }

// Clone returns a deep copy of the field.

// Range returns the minimum and maximum values of the field, ignoring NaN
// sentinels. It returns (0, 0) for an empty or all-NaN field.
func (f *Field) Range() (lo, hi float32) {
	first := true
	for _, v := range f.Values {
		if math.IsNaN(float64(v)) {
			continue
		}
		if first {
			lo, hi = v, v
			first = false
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Dataset pairs a grid with a set of named fields, mirroring a VTK image
// dataset with multiple point-data arrays.
type Dataset struct {
	Grid   *Uniform
	fields map[string]*Field
	order  []string
}

// NewDataset returns an empty dataset over g.
func NewDataset(g *Uniform) *Dataset {
	return &Dataset{Grid: g, fields: make(map[string]*Field)}
}

// AddField attaches f to the dataset. It returns an error if the field
// length does not match the grid's point count or the name is taken.
func (d *Dataset) AddField(f *Field) error {
	if f.Len() != d.Grid.NumPoints() {
		return fmt.Errorf("grid: field %q has %d values, grid has %d points",
			f.Name, f.Len(), d.Grid.NumPoints())
	}
	if _, dup := d.fields[f.Name]; dup {
		return fmt.Errorf("grid: duplicate field %q", f.Name)
	}
	d.fields[f.Name] = f
	d.order = append(d.order, f.Name)
	return nil
}

// MustAddField is AddField but panics on error; for use by generators whose
// inputs are statically correct.
func (d *Dataset) MustAddField(f *Field) {
	if err := d.AddField(f); err != nil {
		panic(err)
	}
}

// Field returns the named field, or nil if absent.
func (d *Dataset) Field(name string) *Field { return d.fields[name] }

// FieldNames returns the field names in insertion order.
func (d *Dataset) FieldNames() []string {
	out := make([]string, len(d.order))
	copy(out, d.order)
	return out
}

// NumFields returns the number of fields.
func (d *Dataset) NumFields() int { return len(d.order) }

// Select returns a new dataset sharing the grid and only the named fields,
// modelling VTK's data-array selection. Unknown names are an error.
