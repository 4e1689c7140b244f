// Command flowgen exports synthetic vantage-point traffic. Two modes:
//
//   - packet export (default): real NetFlow v5, NetFlow v9, or IPFIX
//     export packets — one length-prefixed export packet per line-record
//     in the output file — so downstream collectors can be tested
//     against booterscope's workloads;
//   - archive export (-out <dir>): a columnar flowstore archive of the
//     full study window, one sharded store per vantage point, that
//     cmd/takedown and cmd/ddoswatch replay with -store.dir instead of
//     regenerating the traffic.
//
// With -out -federate the archive mode instead writes one store per
// federated collector (IXP, tier-1 ISP, tier-2 ISP — each observing
// its own subset of one shared ground truth) plus a vantages.json
// manifest, the input to ddoswatch -federate / -correlate.
package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"booterscope/internal/core"
	"booterscope/internal/flow"
	"booterscope/internal/flowstore"
	"booterscope/internal/ipfix"
	"booterscope/internal/netflow"
	"booterscope/internal/telemetry"
	"booterscope/internal/telemetry/debugserver"
	"booterscope/internal/trafficgen"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams passed in,
// so a test can drive it in process; it returns the exit code: 0 on
// success (and for -h), 1 when generation fails, 2 on a bad flag.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flowgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed    = fs.Uint64("seed", 1, "random seed")
		scale   = fs.Float64("scale", 0.2, "traffic scale factor")
		day     = fs.Int("day", 0, "scenario day to export (packet mode)")
		days    = fs.Int("days", 122, "days of traffic to archive (-out mode)")
		vantage = fs.String("vantage", "tier2", "vantage point: ixp, tier1, tier2, or all (-out mode only)")
		format  = fs.String("format", "ipfix", "export format: v5, v9, ipfix")
		out     = fs.String("o", "flows.bin", "output file (packet mode)")
		outDir  = fs.String("out", "", "write a flowstore archive to this directory instead of export packets")
		shards  = fs.Int("store.shards", flowstore.DefaultShards, "archive shard count (-out mode)")
		fedOut  = fs.Bool("federate", false, "with -out: write per-vantage federated archives plus vantages.json for ddoswatch -federate")
		fedUni  = fs.Bool("federate.union", false, "with -federate: also write the union store the federated scan must match byte-for-byte")
	)
	// debugserver.AddrFlag's flag, declared on this FlagSet: run is
	// called more than once per process by its smoke test.
	debugAddr := fs.String("debug.addr", "",
		"serve /metrics, /metrics.json, /events, /attacks and /debug/pprof on this address (empty: disabled)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	reg := telemetry.NewRegistry()
	flow.RegisterTelemetry(reg)
	flowstore.RegisterTelemetry(reg)
	srv, err := debugserver.Start(*debugAddr, reg)
	if err == nil {
		if srv != nil {
			defer srv.Close()
			fmt.Fprintf(stdout, "debug surface on http://%s/ (metrics, pprof)\n", srv.Addr())
		}
		err = generate(stdout, *seed, *scale, *day, *days, *vantage, *format, *out, *outDir, *shards, *fedOut, *fedUni)
	}
	if err != nil {
		fmt.Fprintf(stderr, "flowgen: %v\n", err)
		return 1
	}
	return 0
}

// generate dispatches to the mode the flags select.
func generate(stdout io.Writer, seed uint64, scale float64, day, days int, vantage, format, out, outDir string, shards int, fedOut, fedUni bool) error {
	var kind trafficgen.Kind
	switch vantage {
	case "ixp":
		kind = trafficgen.KindIXP
	case "tier1":
		kind = trafficgen.KindTier1
	case "tier2":
		kind = trafficgen.KindTier2
	case "all":
		if outDir == "" {
			return errors.New("-vantage all requires -out (packet export is single-vantage)")
		}
	default:
		return fmt.Errorf("unknown vantage %q", vantage)
	}

	if outDir != "" {
		if fedOut {
			return writeFederated(stdout, outDir, seed, scale, days, shards, fedUni)
		}
		return writeArchive(stdout, outDir, seed, scale, days, shards, vantage, kind)
	}
	if fedOut || fedUni {
		return errors.New("-federate requires -out (federation is archive export)")
	}
	return exportPackets(stdout, seed, scale, day, kind, format, out)
}

// exportPackets writes one vantage-day as length-prefixed export
// packets in the given format to path.
func exportPackets(stdout io.Writer, seed uint64, scale float64, day int, kind trafficgen.Kind, format, path string) error {
	scenario := trafficgen.NewScenario(trafficgen.Config{
		Start:    core.StudyStart,
		Days:     day + 1,
		Takedown: core.TakedownDate,
		Seed:     seed,
		Scale:    scale,
	})
	records := scenario.Day(kind, day)
	ts := scenario.DayTime(day)

	var encode func(recs []flow.Record) ([]byte, error)
	batch := 100
	switch format {
	case "v5":
		exp := &netflow.V5Exporter{BootTime: ts.AddDate(0, 0, -1)}
		batch = netflow.MaxV5Records
		encode = func(recs []flow.Record) ([]byte, error) { return exp.EncodeV5(clampCounters(recs), ts) }
	case "v9":
		exp := &netflow.V9Exporter{SourceID: 1, BootTime: ts.AddDate(0, 0, -1)}
		if kind == trafficgen.KindIXP {
			// The IXP view is packet-sampled: advertise the rate via the
			// v9 options template so collectors scale counters up.
			exp.SamplingRate = scenario.Config().IXPSamplingRate
		}
		encode = func(recs []flow.Record) ([]byte, error) { return exp.EncodeV9(recs, ts) }
	case "ipfix":
		enc := &ipfix.Encoder{DomainID: 1}
		encode = func(recs []flow.Record) ([]byte, error) { return enc.Encode(recs, ts) }
	default:
		return fmt.Errorf("unknown format %q", format)
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	packets := 0
	for i := 0; i < len(records); i += batch {
		msg, err := encode(records[i:min(i+batch, len(records))])
		if err != nil {
			return err
		}
		var lenBuf [4]byte
		binary.BigEndian.PutUint32(lenBuf[:], uint32(len(msg)))
		if _, err := w.Write(lenBuf[:]); err != nil {
			return err
		}
		if _, err := w.Write(msg); err != nil {
			return err
		}
		packets++
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d %s export packets carrying %d flow records (%v, day %d) to %s\n",
		packets, format, len(records), kind, day, path)
	return nil
}

// writeArchive generates the takedown study window and persists it as a
// flowstore archive — phase one of the two-phase generate-then-analyse
// workflow (cmd/takedown -store.dir replays phase two).
func writeArchive(stdout io.Writer, dir string, seed uint64, scale float64, days, shards int, vantage string, kind trafficgen.Kind) error {
	study := core.NewTakedownStudy(core.Options{Seed: seed, Scale: scale, Days: days})
	var kinds []trafficgen.Kind
	if vantage != "all" {
		kinds = []trafficgen.Kind{kind}
	}
	opts := flowstore.Options{Shards: shards}
	if err := study.WriteArchive(dir, opts, kinds...); err != nil {
		return err
	}

	replay, err := core.OpenReplay(dir)
	if err != nil {
		return fmt.Errorf("verifying archive: %w", err)
	}
	defer replay.Close()
	fmt.Fprintf(stdout, "archived %d days (seed %d, scale %g) to %s\n", days, seed, scale, dir)
	for _, k := range replay.Kinds() {
		st := replay.Store(k)
		var records, bytes uint64
		segs := st.Segments()
		for _, e := range segs {
			records += e.Records
			bytes += e.Bytes
		}
		fmt.Fprintf(stdout, "  %-8s %9d records in %3d segments, %.1f MiB\n",
			core.KindSlug(k), records, len(segs), float64(bytes)/(1<<20))
	}
	fmt.Fprintf(stdout, "replay with: takedown -store.dir %s\n", dir)
	return nil
}

// writeFederated generates ONE study window and persists it as N
// per-vantage flowstore archives plus the vantages.json manifest that
// ddoswatch -federate opens — every collector sees its own subset of
// the same ground truth (visibility + sampling), so cross-vantage
// disagreement in the correlation report is seeded, not simulated.
func writeFederated(stdout io.Writer, dir string, seed uint64, scale float64, days, shards int, withUnion bool) error {
	study := core.NewTakedownStudy(core.Options{Seed: seed, Scale: scale, Days: days})
	opts := flowstore.Options{Shards: shards}
	m, err := study.WriteFederatedArchive(dir, opts, nil, withUnion)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "federated %d days (seed %d, scale %g) to %s\n", days, seed, scale, dir)
	for _, v := range m.Vantages {
		st, err := flowstore.Open(v.Dir, flowstore.Options{})
		if err != nil {
			return fmt.Errorf("verifying vantage %s: %w", v.Name, err)
		}
		var records, bytes uint64
		segs := st.Segments()
		for _, e := range segs {
			records += e.Records
			bytes += e.Bytes
		}
		st.Close()
		fmt.Fprintf(stdout, "  %-8s %-12s %9d records in %3d segments, %.1f MiB, skew<=%ds\n",
			v.Name, v.Tier, records, len(segs), float64(bytes)/(1<<20), v.ClockSkewMaxSeconds)
	}
	fmt.Fprintf(stdout, "query with: ddoswatch -federate %s/vantages.json -correlate\n", dir)
	return nil
}

// clampCounters bounds NetFlow v5's 32-bit counters (v9/IPFIX carry 64
// bits natively).
func clampCounters(recs []flow.Record) []flow.Record {
	out := make([]flow.Record, len(recs))
	copy(out, recs)
	for i := range out {
		if out[i].Packets > 0xffffffff {
			out[i].Packets = 0xffffffff
		}
		if out[i].Bytes > 0xffffffff {
			out[i].Bytes = 0xffffffff
		}
	}
	return out
}
