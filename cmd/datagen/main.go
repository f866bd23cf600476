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
// With -bricks NxMxK each timestep is additionally partitioned into
// bricks with a ghost layer and written as per-brick objects plus a
// manifest, ready for a sharded scatter-gather deployment:
//
//	datagen -dataset asteroid -n 96 -codec raw -bricks 3x1x1 -shards 3 -out ./data
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
		cksum   = flag.Bool("checksum", true, "embed per-page CRC32C checksums in every written object; readers verify on decode and the ndpserver scrubber audits them")
		bricks  = flag.String("bricks", "", `also write per-brick objects + manifest, bricked "NxMxK" (e.g. 3x1x1)`)
		ghost   = flag.Int("ghost", 1, "ghost cell layers per brick (with -bricks)")
		shards  = flag.Int("shards", 0, "assign bricks to this many shards round-robin in the manifest (0 = brick ID mod shard count)")
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

	writeRaw := func(key string, data []byte) error {
		if *store != "" {
			client := objstore.NewClient(*store, nil)
			return client.Put(*bucket, key, data)
		}
		path := filepath.Join(*out, filepath.FromSlash(key))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, data, 0o644)
	}

	write := func(key string, ds *grid.Dataset, kind compress.Kind) error {
		opts := vtkio.WriteOptions{Codec: kind, Checksum: *cksum}
		if *store != "" {
			var buf bytes.Buffer
			if err := vtkio.Write(&buf, ds, opts); err != nil {
				return err
			}
			client := objstore.NewClient(*store, nil)
			return client.Put(*bucket, key, buf.Bytes())
		}
		path := filepath.Join(*out, filepath.FromSlash(key))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		return vtkio.WriteFile(path, ds, opts)
	}

	// writeBricked partitions one timestep into per-brick objects under
	// <dataset>/<codec>/ts%05d/ and writes the manifest next to the
	// timestep directories (the geometry is identical across steps, so
	// one manifest per dataset/codec suffices).
	wroteManifest := map[compress.Kind]bool{}
	writeBricked := func(name string, step int, ds *grid.Dataset, kind compress.Kind) error {
		man, err := vtkio.BuildManifest(ds.Grid, spec, ds.FieldNames(), *shards)
		if err != nil {
			return err
		}
		if !wroteManifest[kind] {
			data, err := vtkio.EncodeManifest(man)
			if err != nil {
				return err
			}
			key := fmt.Sprintf("%s/%s/manifest.json", name, kind)
			if err := writeRaw(key, data); err != nil {
				return err
			}
			fmt.Println("wrote", key)
			wroteManifest[kind] = true
		}
		gridBricks, err := man.GridBricks()
		if err != nil {
			return err
		}
		for _, b := range gridBricks {
			sub, err := grid.ExtractBrick(ds, b)
			if err != nil {
				return err
			}
			key := fmt.Sprintf("%s/%s/ts%05d/%s", name, kind, step, vtkio.BrickKey(b.ID))
			if err := write(key, sub, kind); err != nil {
				return err
			}
			fmt.Println("wrote", key)
		}
		return nil
	}

	emit := func(name string, step int, ds *grid.Dataset) {
		for _, kind := range codecs {
			key := fmt.Sprintf("%s/%s/ts%05d.vnd", name, kind, step)
			if err := write(key, ds, kind); err != nil {
				log.Fatal(err)
			}
			fmt.Println("wrote", key)
			if *bricks != "" {
				if err := writeBricked(name, step, ds, kind); err != nil {
					log.Fatal(err)
				}
			}
		}
	}

	switch *dataset {
	case "asteroid":
		cfg := sim.AsteroidConfig{N: *n, Seed: uint32(*seed)}
		for _, step := range cfg.Timesteps(*steps) {
			ds, err := cfg.Generate(step)
			if err != nil {
				log.Fatal(err)
			}
			emit("asteroid", step, ds)
		}
	case "nyx":
		cfg := sim.NyxConfig{N: *n, Seed: uint32(*seed)}
		ds, err := cfg.Generate()
		if err != nil {
			log.Fatal(err)
		}
		emit("nyx", 0, ds)
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
