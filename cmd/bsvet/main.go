// Command bsvet runs booterscope's repo-invariant static-analysis
// suite (internal/analysis) over the tree and prints findings in the
// standard vet format (file:line:col: rule: message), exiting nonzero
// when anything is found. `make analyze` wires it into `make check`.
//
// Six analyzers run:
//
//   - determinism: no wall-clock reads (time.Now/Since/Until), no
//     process-global math/rand draws, and no map-iteration feeding
//     output sinks, in the packages whose results the golden tests pin
//     byte-for-byte. Legitimately wall-clock code carries a
//     `//bsvet:allow determinism <reason>` directive.
//   - batchownership: no use of a pipe.Batch after its ownership was
//     handed off (Release, channel send, pool Put, emit callback) —
//     PR 4's linear-ownership contract, which the race detector cannot
//     reliably check because the pool recycles memory.
//   - telemetry: the registry contract of DESIGN.md §6 — stats-bearing
//     packages register telemetry, metric names carry the owning
//     component's prefix, label cardinality stays capped. This is the
//     type-aware replacement for the retired scripts/lint-telemetry.sh.
//   - lockdiscipline: struct fields annotated `//bsvet:guards <mutex>`
//     are only touched while that mutex is held (Lock, RLock for
//     reads, or a *Locked-suffixed helper), and never also accessed
//     through sync/atomic.
//   - goroutinelifecycle: every `go` statement in the long-running
//     packages has a visible shutdown path — a channel/context
//     argument, a lifecycle construct in its body, or an explicit
//     allow directive. This makes the daemon's drain semantics
//     mechanical.
//   - deadcode: on a whole-module load, exported identifiers in
//     internal/ that no non-test code outside their package uses, and
//     unexported ones nothing uses. cmd/, examples/ and bench/ count as
//     callers. The same load reports any package path the lists below
//     name that the module no longer contains.
//
// Usage: bsvet [-timings] [packages]
// (packages default to ./...)
package main

import (
	"flag"
	"fmt"
	"os"

	"booterscope/internal/analysis"
)

// deterministicPackages are the simulation and analysis packages whose
// outputs the golden tests pin byte-identically: any wall-clock or
// global-randomness read here is a reproducibility bug, not a style
// nit. Even the operational packages (chaos, ipfix, webobs) are listed
// — their fault plans and backoff jitter draw from seeded sources by
// design — with the handful of legitimately wall-clock sites
// (telemetry latency observations, TLS certificate serials, the
// service daemon's checkpoint/SLO tickers) carrying //bsvet:allow
// directives. Only telemetry, debugserver, and the cmd binaries are
// wall-clock by nature and stay out of scope.
var deterministicPackages = []string{
	"booterscope/internal/amplify",
	"booterscope/internal/anon",
	"booterscope/internal/bgp",
	"booterscope/internal/booter",
	"booterscope/internal/chaos",
	"booterscope/internal/classify",
	"booterscope/internal/core",
	"booterscope/internal/domainobs",
	"booterscope/internal/economy",
	"booterscope/internal/federation",
	"booterscope/internal/flow",
	"booterscope/internal/flowstore",
	"booterscope/internal/ipfix",
	"booterscope/internal/ixp",
	"booterscope/internal/netflow",
	"booterscope/internal/netutil",
	"booterscope/internal/observatory",
	"booterscope/internal/packet",
	"booterscope/internal/pcap",
	"booterscope/internal/pipe",
	"booterscope/internal/reflector",
	"booterscope/internal/sampling",
	"booterscope/internal/service",
	"booterscope/internal/sflow",
	"booterscope/internal/stats",
	"booterscope/internal/takedown",
	"booterscope/internal/textplot",
	"booterscope/internal/timeseries",
	"booterscope/internal/trafficgen",
	"booterscope/internal/webobs",
}

// lifecyclePackages are the long-running packages where every spawned
// goroutine must have a reachable shutdown path (DESIGN.md §15): the
// daemon itself, the batch pipeline, the replay's worker runner, the
// federated query plane, the wire-protocol endpoints, the flow archive,
// and the debug server.
// One-shot cmd binaries and test-support packages may fire and forget.
var lifecyclePackages = []string{
	"booterscope/internal/service",
	"booterscope/internal/pipe",
	"booterscope/internal/takedown",
	"booterscope/internal/federation",
	"booterscope/internal/ipfix",
	"booterscope/internal/flowstore",
	"booterscope/internal/telemetry/debugserver",
}

// telemetryConfig is the repo's registry policy, ported from the
// retired scripts/lint-telemetry.sh into type-aware form.
var telemetryConfig = analysis.TelemetryConfig{
	// The registry itself and the analysis suite define no component
	// accounting of their own.
	ExemptPaths: []string{
		"booterscope/internal/telemetry",
		"booterscope/internal/telemetry/debugserver",
		"booterscope/internal/analysis",
	},
	// Registry wiring that is load-bearing for operability: the flow
	// archive (silent loss of store accounting would hide dropped
	// batches under fault injection) and the batch pipeline (without
	// its gauges an operator cannot see backpressure, leaks, or slow
	// stages).
	RequiredPaths: []string{
		"booterscope/internal/federation",
		"booterscope/internal/flowstore",
		"booterscope/internal/pipe",
	},
	// The pipeline's observability contract: the debug surface and the
	// bench harness scrape these names, so renaming or dropping one is
	// a breaking change this analyzer makes loud.
	RequiredMetrics: map[string][]string{
		// The federated query plane: ddoswatch -federate scrapes the
		// scan/correlation counters and /vantages reads the open-store
		// gauge, so each name is part of the debug surface.
		"booterscope/internal/federation": {
			"federation_scans_total",
			"federation_scan_records_total",
			"federation_scan_errors_total",
			"federation_open_vantages",
			"federation_correlations_total",
			"federation_correlated_attacks_total",
			"federation_disagreements_total",
		},
		"booterscope/internal/pipe": {
			"pipe_batches_in_flight",
			"pipe_shard_queue_depth_max",
			"pipe_stage_batch_latency_seconds",
		},
	},
	// cmd/reproduce owns the cross-component funnel series
	// (exported ≥ collected ≥ classified).
	AllowPrefixes: map[string][]string{
		"booterscope/cmd/reproduce": {"funnel"},
	},
}

func main() {
	timings := flag.Bool("timings", false, "print per-analyzer wall time in the run summary")
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	// One loader for the whole run: the go list resolution and the
	// type-check of each package are shared by all six analyzers.
	pkgs, err := analysis.NewLoader().Load("", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bsvet: %v\n", err)
		os.Exit(2)
	}
	suite := analysis.NewSuite(
		analysis.NewDeterminism(deterministicPackages...),
		analysis.NewBatchOwnership(),
		analysis.NewTelemetry(telemetryConfig),
		analysis.NewLockDiscipline(),
		analysis.NewGoroutineLifecycle(lifecyclePackages...),
		analysis.NewDeadcode(),
	)
	diags := suite.Run(pkgs)
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if *timings {
		for _, t := range suite.Timings() {
			fmt.Fprintf(os.Stderr, "bsvet: %-20s %8.1fms  %d finding(s)\n",
				t.Rule, float64(t.Elapsed.Microseconds())/1000, t.Findings)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "bsvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
