// Package repro reproduces "Not All Apps Are Created Equal: Analysis
// of Spatiotemporal Heterogeneity in Nationwide Mobile Service Usage"
// (Marquez et al., ACM CoNEXT 2017) as a self-contained Go system.
//
// The repository builds every substrate the study depends on — a
// synthetic nationwide mobile network (communes, cities, TGV
// corridors, 3G/4G coverage), the GTP packet plane with passive
// probes and DPI, the statistics and time-series toolchain (FFT,
// k-Shape clustering, validity indices, smoothed z-score peak
// detection) — and an experiment runner per paper figure.
//
// The analysis pipeline is decoupled from data provenance: everything
// in internal/core computes over the core.Dataset interface, with the
// synthetic generator (internal/synth) and the probe-measured adapter
// (internal/measured) as interchangeable backends, and an experiment
// engine (internal/experiments) running the registered figures
// concurrently with memoized intermediates and JSON results.
//
// Layout:
//
//	internal/core         the paper's analysis pipeline (Dataset interface + Analyzer)
//	internal/synth        nationwide demand generator (data substitute)
//	internal/measured     probe-measured / materialized Dataset backend
//	internal/geo          spatial substrate
//	internal/services     20-service calibrated catalogue
//	internal/capture      streaming frame transport + binary trace format
//	internal/rollup       epoch-sealed rollup store: online aggregation, snapshots, Open → Dataset
//	internal/pkt,gtpsim,
//	internal/dpi,probe    packet-level measurement pipeline (TEID-sharded)
//	internal/dsp,mat,
//	internal/stats,
//	internal/timeseries,
//	internal/kshape,
//	internal/cvi,peaks    analysis toolchain
//	internal/experiments  experiment registry + concurrent engine
//	internal/epochwire    distributed collection: probe shipper → merging aggregator
//	internal/catalog      indexed query engine over snapshot files and directories
//	internal/ctl          the admin protocol aggd and rollupctl serve both speak
//	internal/daemon       what the binaries share: signals, -metrics, exit codes, the capture plane
//	internal/obs          metrics registry, HTTP exposition, leveled logger
//	internal/chaos        seeded fault injection behind the wire and disk seams
//	internal/lint         the repolint analyzers (machine-checked invariants)
//	internal/leakcheck    goroutine-leak helper for tests
//	cmd/analyze           the study: headline summary, -ids figures, -list, -snapshot input
//	cmd/probesim          capture plane: local run, or a networked probe with -aggr
//	cmd/aggd,rollupctl,
//	cmd/tracegen,repolint aggregator, snapshot algebra, trace recorder, invariant suite
//	examples/...          Example tests with pinned output (go test ./examples/...)
//	bench/                the performance ledger (BENCHMARK.json)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record.
package repro

// Version identifies the reproduction release.
const Version = "1.0.0"
