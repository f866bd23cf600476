// Command vizlint runs the repo's static-analysis suite over every
// package in the module: lock and channel discipline (lockhold), Closer
// lifecycle (closepath), bit-exact float comparisons (floateq) and %w
// error wrapping (errwrap).
//
// Usage:
//
//	go run ./cmd/vizlint ./...
//	go run ./cmd/vizlint -list
//
// Exit status: 0 when clean, 1 when findings were reported, 2 on usage
// or load errors. Findings print as file:line:col: analyzer: message.
// Suppress a finding at its line with a mandatory-reason directive:
//
//	// vizlint:ignore <analyzer> <reason>
//
// A directive that suppresses nothing, or that names an analyzer the
// suite does not have, is itself a finding.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"vizndp/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vizlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: vizlint [-list] [packages]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stdout, "%-12s %s\n", analysis.TypecheckName,
			"parse and type-check errors (always on)")
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	pkgs, err := loader.LoadPatterns(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	findings := analysis.Analyze(pkgs, analysis.All())
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "vizlint: %d finding(s) in %d package(s)\n",
			len(findings), len(pkgs))
		return 1
	}
	return 0
}
