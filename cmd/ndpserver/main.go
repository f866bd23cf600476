// Command ndpserver runs the storage-side half of the split pipeline:
// an RPC service that reads dataset files (from a local directory or
// through an s3fs mount of an object store on the same node), runs the
// contour pre-filter near the data, and ships only the selected mesh
// points to clients.
//
// Examples:
//
//	ndpserver -addr 127.0.0.1:9100 -dir ./data
//	ndpserver -addr 127.0.0.1:9100 -store 127.0.0.1:9000 -bucket sim
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"vizndp/internal/core"
	"vizndp/internal/netsim"
	"vizndp/internal/objstore"
	"vizndp/internal/rpc"
	"vizndp/internal/s3fs"
	"vizndp/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ndpserver: ")

	var (
		addr     = flag.String("addr", "127.0.0.1:9100", "listen address")
		dir      = flag.String("dir", "", "serve dataset files from this directory")
		store    = flag.String("store", "", "object store address to mount instead of -dir")
		bucket   = flag.String("bucket", "sim", "object store bucket")
		cacheB   = flag.Int64("cache-bytes", 0, "decoded-array cache budget in bytes (0 = off)")
		payloadB = flag.Int64("payload-cache-bytes", 0, "encoded-payload cache budget in bytes; identical fetches share one read and scan, concurrent or repeated (0 = off)")
		scrubInt = flag.Duration("scrub-interval", 0, "verify stored brick checksums in the background this often, quarantining corrupt objects (0 = off; requires -scrub-manifest)")
		scrubMan = flag.String("scrub-manifest", "", "comma-separated brick manifest paths for the background scrubber; status at /scrub")
		maxInFl  = flag.Int("max-inflight", 0, "max concurrently executing requests (0 = unbounded)")
		queue    = flag.Int("queue", 0, "admission queue length beyond -max-inflight; full queue sheds with a retryable busy error")
		drainFor = flag.Duration("drain-timeout", 30*time.Second, "how long to let in-flight requests finish on SIGINT or SIGTERM")
		gbps     = flag.Float64("gbps", 0, "shape client traffic to this many Gb/s (0 = unshaped)")
		latency  = flag.Duration("latency", 0, "one-way link latency to charge")
		telAddr  = flag.String("telemetry-addr", "", "serve /metrics, /debug/trace, /debug/requests, /slo, and pprof on this address")
		sloSpec  = flag.String("slo", "", `SLO objectives as "method=latency@latPct[/availPct]" entries, e.g. "ndp.fetch=50ms@99/99.9,*=250ms@99"; publishes telemetry.slo.* burn gauges and /slo`)
		bundles  = flag.String("debug-bundles", "", "write anomaly-triggered debug bundles (recent wide events, trace tree, metrics) into this directory")
		logLevel = flag.String("log-level", "info", "log level: debug, info, warn, error")
	)
	flag.Parse()
	setLogLevel(*logLevel)

	rec := telemetry.DefaultFlightRecorder()
	if *sloSpec != "" {
		objs, err := telemetry.ParseSLOSpec(*sloSpec)
		if err != nil {
			log.Fatal(err)
		}
		rec.SetSLO(telemetry.NewSLOMonitor(telemetry.KindServer, objs...))
	}
	if *bundles != "" {
		bw, err := telemetry.NewBundleWriter(*bundles)
		if err != nil {
			log.Fatal(err)
		}
		rec.SetBundles(bw)
		fmt.Printf("debug bundles in %s\n", bw.Dir())
	}

	if (*dir == "") == (*store == "") {
		log.Fatal("specify exactly one of -dir or -store")
	}
	var fsys fs.FS
	if *dir != "" {
		fsys = os.DirFS(*dir)
	} else {
		// Node-local mount: the object store runs on this same storage
		// node, so this client is unshaped.
		fsys = s3fs.New(objstore.NewClient(*store, nil), *bucket)
	}

	srvOpts := []core.ServerOption{core.WithCacheBytes(*cacheB),
		core.WithMaxInFlight(*maxInFl), core.WithQueue(*queue)}
	if *payloadB > 0 {
		srvOpts = append(srvOpts, core.WithPayloadCacheBytes(*payloadB))
	}
	var scrubber *core.Scrubber
	if *scrubMan != "" {
		var manifests []string
		for _, m := range strings.Split(*scrubMan, ",") {
			if m = strings.TrimSpace(m); m != "" {
				manifests = append(manifests, m)
			}
		}
		scrubber = core.NewScrubber(fsys, manifests...)
		srvOpts = append(srvOpts, core.WithScrubber(scrubber))
		telemetry.SetScrubStatus(func() any { return scrubber.Status() })
		// One synchronous pass before serving: known-bad bricks are
		// quarantined before the first fetch can trip over them.
		if rep, err := scrubber.RunOnce(context.Background()); err != nil {
			log.Fatalf("initial scrub pass: %v", err)
		} else if rep.Corrupt > 0 {
			log.Printf("initial scrub pass quarantined %d of %d objects", rep.Quarantined, rep.Scanned+rep.Corrupt+rep.Skipped)
		}
		if *scrubInt > 0 {
			scrubber.Start(*scrubInt)
			defer scrubber.Stop()
		}
	} else if *scrubInt > 0 {
		log.Fatal("-scrub-interval requires -scrub-manifest")
	}
	srv := core.NewServer(fsys, srvOpts...)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	bound := ln.Addr().String()
	if *gbps > 0 || *latency > 0 {
		link := netsim.NewLink(*gbps*netsim.Gbps, *latency)
		ln = link.Listener(ln)
	}
	if *telAddr != "" {
		tbound, tshutdown, err := telemetry.ServeDebug(*telAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer tshutdown()
		fmt.Printf("telemetry on http://%s/metrics\n", tbound)
	}
	fmt.Printf("NDP pre-filter service on %s", bound)
	if *gbps > 0 {
		fmt.Printf(" (shaped to %g Gb/s)", *gbps)
	}
	if *cacheB > 0 {
		fmt.Printf(" (array cache %d bytes)", *cacheB)
	}
	if *payloadB > 0 {
		fmt.Printf(" (payload cache %d bytes)", *payloadB)
	}
	if scrubber != nil {
		if *scrubInt > 0 {
			fmt.Printf(" (scrubbing every %v)", *scrubInt)
		} else {
			fmt.Print(" (scrubbed once at startup)")
		}
	}
	fmt.Println()

	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		// Graceful drain: stop accepting, shed new requests with the
		// retryable busy error, and give in-flight fetches -drain-timeout
		// to finish before cutting them off.
		log.Printf("draining (up to %v)", *drainFor)
		ctx, cancel := context.WithTimeout(context.Background(), *drainFor)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("drain incomplete: %v", err)
		}
	}()
	if err := srv.Serve(ln); err != nil && !errors.Is(err, rpc.ErrShutdown) {
		log.Fatal(err)
	}
}

// setLogLevel applies a -log-level flag value to the telemetry loggers.
func setLogLevel(s string) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(s)); err != nil {
		log.Fatalf("bad -log-level %q: %v", s, err)
	}
	telemetry.SetLogLevel(lvl)
}
