// Command objstored runs the S3-style object store (the MinIO stand-in)
// over a local directory. An optional bandwidth/latency shape emulates
// serving clients across a slow link, as in the paper's testbed.
//
// Example:
//
//	objstored -root ./data -addr 127.0.0.1:9000 -gbps 1
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"

	"vizndp/internal/netsim"
	"vizndp/internal/objstore"
	"vizndp/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("objstored: ")

	var (
		root    = flag.String("root", "./objstore-data", "backing directory")
		addr    = flag.String("addr", "127.0.0.1:9000", "listen address")
		gbps    = flag.Float64("gbps", 0, "shape served traffic to this many Gb/s (0 = unshaped)")
		latency = flag.Duration("latency", 0, "one-way link latency to charge")
		telAddr = flag.String("telemetry-addr", "", "serve /metrics, /debug/trace, /debug/requests, /slo, and pprof on this address")
		bundles = flag.String("debug-bundles", "", "write anomaly-triggered debug bundles (recent wide events, trace tree, metrics) into this directory")
	)
	var logLevel slog.Level
	flag.TextVar(&logLevel, "log-level", slog.LevelInfo, "log level: debug, info, warn, error")
	flag.Parse()
	telemetry.SetLogLevel(logLevel)

	if *bundles != "" {
		bw, err := telemetry.NewBundleWriter(*bundles)
		if err != nil {
			log.Fatal(err)
		}
		telemetry.DefaultFlightRecorder().SetBundles(bw)
		fmt.Printf("debug bundles in %s\n", bw.Dir())
	}

	srv, err := objstore.NewServer(*root)
	if err != nil {
		log.Fatal(err)
	}
	var wrap func(net.Listener) net.Listener
	if *gbps > 0 || *latency > 0 {
		link := netsim.NewLink(*gbps*netsim.Gbps, *latency)
		wrap = link.Listener
	}
	bound, shutdown, err := srv.ListenAndServe(*addr, wrap)
	if err != nil {
		log.Fatal(err)
	}
	if *telAddr != "" {
		tbound, tshutdown, err := telemetry.ServeDebug(*telAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer tshutdown()
		fmt.Printf("telemetry on http://%s/metrics\n", tbound)
	}
	// Before the banner: whoever reads it may interrupt us straight away.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	fmt.Printf("serving %s on %s", *root, bound)
	if *gbps > 0 {
		fmt.Printf(" (shaped to %g Gb/s)", *gbps)
	}
	fmt.Println()

	<-sig
	fmt.Println("shutting down")
	shutdown()
}
