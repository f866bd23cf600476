// Command datagen generates the synthetic datasets (the xRage deep-water
// asteroid impact run and the Nyx cosmology snapshot) and writes them as
// dataset files, either to a local directory or into a running object
// store, in any of the three storage codecs.
//
// Examples:
//
//	datagen -dataset asteroid -n 96 -steps 9 -codec all -out ./data
//	datagen -dataset nyx -n 96 -codec lz4 -store 127.0.0.1:9000 -bucket sim
//
// Every object goes where the store layout in internal/vtkio puts it.
// With -bricks NxMxK each timestep is additionally partitioned into
// bricks with a ghost layer and written as per-brick objects plus a
// manifest, ready for a sharded scatter-gather deployment:
//
//	datagen -dataset asteroid -n 96 -codec raw -bricks 3x1x1 -out ./data
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"vizndp/internal/compress"
	"vizndp/internal/grid"
	"vizndp/internal/objstore"
	"vizndp/internal/sim"
	"vizndp/internal/vtkio"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("datagen: ")

	var (
		dataset = flag.String("dataset", "asteroid", "dataset to generate: asteroid or nyx")
		n       = flag.Int("n", 96, "grid edge length (points per axis)")
		steps   = flag.Int("steps", 9, "number of asteroid timesteps (ignored for nyx)")
		codec   = flag.String("codec", "all", "storage codec: raw, gzip, lz4, or all")
		seed    = flag.Uint("seed", 7, "generator seed")
		out     = flag.String("out", "", "output directory (local files)")
		store   = flag.String("store", "", "object store address (host:port) instead of -out")
		bucket  = flag.String("bucket", "sim", "object store bucket")
		bricks  = flag.String("bricks", "", `also write per-brick objects + manifest, bricked "NxMxK" (e.g. 3x1x1)`)
		ghost   = flag.Int("ghost", 1, "ghost cell layers per brick (with -bricks)")
	)
	flag.Parse()

	codecs, err := parseCodecs(*codec)
	if err != nil {
		log.Fatal(err)
	}
	if (*out == "") == (*store == "") {
		log.Fatal("specify exactly one of -out or -store")
	}
	var spec grid.BrickSpec
	if *bricks != "" {
		spec, err = parseBricks(*bricks, *ghost)
		if err != nil {
			log.Fatal(err)
		}
	}

	var client *objstore.Client // one for the whole run
	if *store != "" {
		client = objstore.NewClient(*store, nil)
	}
	// put stores one object in the store or as a file under -out, and
	// reports it.
	put := func(key string, data []byte) error {
		var err error
		if client != nil {
			err = client.Put(*bucket, key, data)
		} else {
			path := filepath.Join(*out, filepath.FromSlash(key))
			if err = os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
				err = os.WriteFile(path, data, 0o644)
			}
		}
		if err == nil {
			fmt.Println("wrote", key)
		}
		return err
	}
	write := func(key string, ds *grid.Dataset, kind compress.Kind) error {
		var buf bytes.Buffer
		if err := vtkio.Write(&buf, ds, vtkio.WriteOptions{Codec: kind, Checksum: true}); err != nil {
			return err
		}
		return put(key, buf.Bytes())
	}

	// emit writes one timestep in every codec and, with -bricks, its
	// bricks under the codec's root. The geometry is the same at every
	// step, so the first step also writes each root's manifest.
	emit := func(name string, step int, ds *grid.Dataset, first bool) error {
		var man *vtkio.Manifest
		var manifest []byte
		if *bricks != "" {
			var err error
			if man, err = vtkio.BuildManifest(ds.Grid, spec, ds.FieldNames()); err == nil && first {
				manifest, err = vtkio.EncodeManifest(man)
			}
			if err != nil {
				return err
			}
		}
		for _, kind := range codecs {
			root := vtkio.Root(name, kind.String())
			err := write(vtkio.ObjectKey(name, kind.String(), step), ds, kind)
			if err == nil && man != nil && first {
				err = put(root+vtkio.ManifestName, manifest)
			}
			if err == nil && man != nil {
				err = vtkio.WriteBricks(man, ds, root, step, func(key string, brick *grid.Dataset) error {
					return write(key, brick, kind)
				})
			}
			if err != nil {
				return err
			}
		}
		return nil
	}

	switch *dataset {
	case "asteroid":
		cfg := sim.AsteroidConfig{N: *n, Seed: uint32(*seed)}
		for i, step := range cfg.Timesteps(*steps) {
			ds, err := cfg.Generate(step)
			if err == nil {
				err = emit("asteroid", step, ds, i == 0)
			}
			if err != nil {
				log.Fatal(err)
			}
		}
	case "nyx":
		cfg := sim.NyxConfig{N: *n, Seed: uint32(*seed)}
		ds, err := cfg.Generate()
		if err == nil {
			err = emit("nyx", 0, ds, true)
		}
		if err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown dataset %q (want asteroid or nyx)", *dataset)
	}
}

// parseBricks parses "NxMxK" into a brick spec.
func parseBricks(s string, ghost int) (grid.BrickSpec, error) {
	var nx, ny, nz int
	if _, err := fmt.Sscanf(s, "%dx%dx%d", &nx, &ny, &nz); err != nil {
		return grid.BrickSpec{}, fmt.Errorf(`bad -bricks %q (want "NxMxK", e.g. 3x1x1)`, s)
	}
	return grid.BrickSpec{NX: nx, NY: ny, NZ: nz, Ghost: ghost}, nil
}

func parseCodecs(s string) ([]compress.Kind, error) {
	if s == "all" {
		return []compress.Kind{compress.None, compress.Gzip, compress.LZ4}, nil
	}
	k, err := compress.ParseKind(s)
	if err != nil {
		return nil, err
	}
	return []compress.Kind{k}, nil
}
