// Package vizndp reproduces "Accelerating Viz Pipelines Using Near-Data
// Computing: An Early Experience" (Zheng et al., SC 2024): a contour
// filter split into a pre-filter that runs on the storage node and a
// post-filter that completes the contour on the client from the sparse
// payload the pre-filter ships.
//
// The system is driven through its commands, not a library API:
// cmd/objstored, cmd/datagen, cmd/ndpserver and cmd/vizpipe deploy the
// paper's two-node testbed as separate processes, cmd/benchviz runs the
// experiment registry (internal/harness) that regenerates the paper's
// figures and tables, and ./bench is the repository's benchmark. This
// package holds only the tests that drive them end to end,
// TestCommandLineDeployment and BenchmarkExperiment, and
// TestDocReferencesResolve, which holds the docs to the tree.
// examples/quickstart shows the split filter in one process.
package vizndp
