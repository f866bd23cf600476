package vizndp

// One benchmark per entry of the experiment registry, at the quick
// configuration; `cmd/benchviz` runs the same entries at full scale.
// Per-layer throughput and the paper's end-to-end load times are the
// repo benchmark's job (`go run ./bench`, see BENCHMARK.json); what this
// measures and the benchmark does not is the wall time of regenerating
// each of the paper's tables, with its gates, end to end.
//
//	go test -run '^$' -bench 'Experiment/fig13' -benchtime 1x -v .

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"vizndp/internal/harness"
)

var (
	benchOnce sync.Once
	benchEnv  *harness.Env
	benchDir  string
	benchErr  error
)

// env lazily builds one shared harness environment for all benchmarks.
func env(b *testing.B) *harness.Env {
	b.Helper()
	benchOnce.Do(func() {
		benchDir, benchErr = os.MkdirTemp("", "vizndp-bench-*")
		if benchErr != nil {
			return
		}
		benchEnv, benchErr = harness.NewEnv(harness.QuickConfig(benchDir))
	})
	if benchErr != nil {
		b.Fatalf("building bench env: %v", benchErr)
	}
	return benchEnv
}

func TestMain(m *testing.M) {
	code := m.Run()
	if benchEnv != nil {
		benchEnv.Close()
	}
	if benchDir != "" {
		os.RemoveAll(benchDir)
	}
	os.Exit(code)
}

// BenchmarkExperiment runs every registry entry; under -v the tables are
// printed, so a bench run doubles as a results dump.
func BenchmarkExperiment(b *testing.B) {
	for _, x := range harness.Experiments {
		b.Run(x.Name, func(b *testing.B) {
			e := env(b)
			for i := 0; i < b.N; i++ {
				tables, err := x.Run(e)
				if err != nil {
					b.Fatal(err)
				}
				for _, t := range tables {
					if testing.Verbose() {
						fmt.Println(t.String())
					}
				}
			}
		})
	}
}
