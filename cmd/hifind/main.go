// Command hifind runs the HiFIND detector over a libpcap capture or a
// NetFlow v5 export file and prints the alerts of every detection
// interval.
//
//	hifind -pcap trace.pcap -edge 129.105.0.0/16
//	hifind -netflow trace.nf5 -edge 129.105.0.0/16
//	hifind -listen 127.0.0.1:2055 -edge 129.105.0.0/16   # live UDP NetFlow
//	hifind -pcap trace.pcap -edge 10.0.0.0/8 -threshold 2 -phases
//	hifind -pcap trace.pcap -edge 10.0.0.0/8 -http :9090 -linger
//
// The capture's own timestamps drive the measurement intervals (one
// minute by default), so a day-long capture yields 1440 detection rounds
// exactly as the paper's on-site experiment did.
//
// With -http the process serves /metrics (Prometheus text), /healthz,
// /livez, /debug/vars and /debug/pprof on the given address. With -json
// detection results are emitted as NDJSON events on stdout instead of
// the human-readable lines. SIGINT/SIGTERM shut down gracefully: the
// partial final interval is flushed through detection and the capture
// or NetFlow source is closed cleanly.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	hifind "github.com/hifind/hifind"
	"github.com/hifind/hifind/internal/netflow"
	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hifind:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		pcapPath   = flag.String("pcap", "", "libpcap capture to analyze")
		nfPath     = flag.String("netflow", "", "length-delimited NetFlow v5 export file to analyze")
		listen     = flag.String("listen", "", "UDP address to receive live NetFlow v5 exports on (runs until interrupted)")
		edge       = flag.String("edge", "", "comma-separated CIDRs of the monitored network (required)")
		interval   = flag.Duration("interval", time.Minute, "measurement interval")
		threshold  = flag.Float64("threshold", 1, "detection threshold in unresponded SYNs per second")
		alpha      = flag.Float64("alpha", 0.5, "EWMA smoothing constant")
		compact    = flag.Bool("compact", false, "use compact (≈1.5MB) sketches instead of the paper's 13.2MB set")
		inference  = flag.String("inference", "reverse", "offender-key recovery engine: reverse (reverse-hashing search) or invertible (O(buckets) sketch decode)")
		phases     = flag.Bool("phases", false, "print raw and after-classification alerts too")
		statePath  = flag.String("state", "", "checkpoint file: loaded at start if present, saved after every interval (live mode)")
		workers    = flag.Int("workers", 0, "shard sketch recording across N parallel workers (0 = inline)")
		httpAddr   = flag.String("http", "", "serve /metrics, /healthz, /debug/vars and /debug/pprof on this address (e.g. :9090)")
		jsonOut    = flag.Bool("json", false, "emit alerts and interval summaries as NDJSON on stdout")
		linger     = flag.Bool("linger", false, "after an offline replay, keep the -http endpoints up until interrupted")
		flowQueue  = flag.Int("flow-queue", 1024, "live mode: capacity of the collector→detector flow queue (flows are dropped, not blocked on, when it is full)")
		flowCache  = flag.Int("flowcache", 0, "entries of the exact flow-aggregation cache in front of the sketches (0 = disabled); state and alerts stay byte-identical, skewed traffic records faster")
		burstSlots = flag.Int("burst-slots", 0, "cut each interval into N sub-interval windows and alert on single-window SYN pulses that stay under the interval threshold (0 = off)")
		persist    = flag.Bool("persist", false, "detect persistent-and-sparse flows: sources probing below the per-interval threshold interval after interval")
		reflection = flag.Bool("reflection", false, "detect reflection floods: unsolicited inbound SYN/ACK backscatter with no matching outbound SYNs")
	)
	af := registerAggregateFlags()
	flag.Parse()

	// Multi-router aggregation modes run their own loop: -collect is the
	// central merge-and-detect site, -report an edge router shipping its
	// sketch state. Neither uses the single-process replay path below.
	if af.collect != "" || af.report != "" {
		if af.report != "" && (*pcapPath == "" || *edge == "") {
			return fmt.Errorf("-report requires -pcap and -edge")
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		reg := telemetry.NewRegistry()
		health := telemetry.NewHealth()
		if *httpAddr != "" {
			srv, err := telemetry.Serve(*httpAddr, reg, health)
			if err != nil {
				return err
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "telemetry on http://%s/metrics\n", srv.Addr())
		}
		_, err := runAggregateMode(ctx, af, *pcapPath, *edge, *compact, *threshold, *interval, *alpha, reg, health)
		return err
	}

	inputs := 0
	for _, v := range []string{*pcapPath, *nfPath, *listen} {
		if v != "" {
			inputs++
		}
	}
	if inputs != 1 || *edge == "" {
		flag.Usage()
		return fmt.Errorf("exactly one of -pcap/-netflow/-listen plus -edge are required")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := []hifind.Option{
		hifind.WithInterval(*interval),
		hifind.WithThresholdPerSecond(*threshold),
		hifind.WithAlpha(*alpha),
	}
	if *compact {
		opts = append(opts, hifind.WithCompactSketches())
	}
	switch *inference {
	case "reverse":
	case "invertible":
		opts = append(opts, hifind.WithInvertibleInference())
	default:
		return fmt.Errorf("-inference must be reverse or invertible, got %q", *inference)
	}
	if *flowCache > 0 {
		opts = append(opts, hifind.WithFlowCache(*flowCache))
	}
	if *burstSlots > 0 {
		opts = append(opts, hifind.WithBurstDetection(*burstSlots))
	}
	if *persist {
		opts = append(opts, hifind.WithPersistentFlowDetection())
	}
	if *reflection {
		opts = append(opts, hifind.WithReflectionDetection())
	}
	reg := telemetry.NewRegistry()
	health := telemetry.NewHealth()
	opts = append(opts, hifind.WithTelemetry(reg), hifind.WithWorkers(*workers))
	if *listen != "" {
		// Live capture must never stall the socket reader; a sharded
		// detector counts overload drops instead (mirroring the
		// collector's own policy). Inline recording never sheds.
		opts = append(opts, hifind.WithShedOnOverload())
	}
	var sink *telemetry.JSONSink
	if *jsonOut {
		sink = telemetry.NewJSONSink(os.Stdout)
		opts = append(opts, hifind.WithAlertSink(sink))
	}
	det, err := hifind.New(opts...)
	if err != nil {
		return err
	}
	var srv *telemetry.Server
	if *httpAddr != "" {
		srv, err = telemetry.Serve(*httpAddr, reg, health)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry on http://%s/metrics\n", srv.Addr())
	}
	if *listen != "" {
		return runLive(ctx, det, *listen, strings.Split(*edge, ","), *interval, *statePath, *flowQueue, reg, health)
	}
	path := *pcapPath
	if path == "" {
		path = *nfPath
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	// Offline replay has no failure mode a probe could catch before the
	// process exits; the component exists so /healthz names the source.
	health.Register("source", func() error { return nil })

	cacheNote := ""
	if *flowCache > 0 {
		cacheNote = fmt.Sprintf(", %d-entry flow cache", *flowCache)
	}
	fmt.Printf("HiFIND: %0.1f MB of sketches, %v intervals, threshold %.1f SYN/s, %s inference%s\n",
		float64(det.MemoryBytes())/(1<<20), *interval, *threshold, det.InferenceEngine(), cacheNote)
	if sink != nil {
		sink.Emit(telemetry.Event{Time: time.Now(), Kind: "startup", Fields: map[string]any{
			"inference_engine":   det.InferenceEngine(),
			"memory_bytes":       det.MemoryBytes(),
			"interval_seconds":   interval.Seconds(),
			"flow_cache_entries": *flowCache,
		}})
	}
	in := bufio.NewReaderSize(f, 1<<20)
	var results []hifind.Result
	if *pcapPath != "" {
		results, err = hifind.ReplayPcapContext(ctx, in, strings.Split(*edge, ","), det)
	} else {
		results, err = hifind.ReplayNetFlowContext(ctx, in, strings.Split(*edge, ","), det)
	}
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		return err
	}
	totalFinal := 0
	for _, res := range results {
		if *phases && !*jsonOut {
			for _, a := range res.Raw {
				fmt.Printf("interval %3d [raw]      %s\n", res.Interval, a)
			}
			for _, a := range res.AfterClassification {
				fmt.Printf("interval %3d [after-2D] %s\n", res.Interval, a)
			}
		}
		for _, a := range res.Final {
			if !*jsonOut {
				fmt.Printf("interval %3d ALERT %s\n", res.Interval, a)
			}
			totalFinal++
		}
	}
	if interrupted {
		fmt.Fprintln(os.Stderr, "interrupted: partial final interval flushed")
	}
	fmt.Printf("%d intervals analyzed, %d final alerts\n", len(results), totalFinal)
	if *linger && srv != nil && !interrupted {
		fmt.Fprintln(os.Stderr, "replay done; serving telemetry until interrupted")
		<-ctx.Done()
	}
	return nil
}

// runLive receives NetFlow v5 over UDP and detects on wall-clock
// intervals until the process is interrupted. The collector goroutine
// forwards decoded flows over a channel so the detector stays
// single-threaded. On SIGINT/SIGTERM the final partial interval is
// flushed through detection before the source closes.
func runLive(ctx context.Context, det *hifind.Detector, addr string, edgeCIDRs []string,
	interval time.Duration, statePath string, flowQueue int, reg *telemetry.Registry, health *telemetry.Health) error {
	edge, err := netmodel.NewEdgeNetwork(edgeCIDRs...)
	if err != nil {
		return err
	}
	if statePath != "" {
		if data, err := os.ReadFile(statePath); err == nil {
			if err := det.LoadState(data); err != nil {
				return fmt.Errorf("load state %s: %w", statePath, err)
			}
			fmt.Printf("resumed from %s\n", statePath)
		} else if !os.IsNotExist(err) {
			return err
		}
	}
	if flowQueue < 1 {
		return fmt.Errorf("-flow-queue must be at least 1, got %d", flowQueue)
	}
	flows := make(chan netmodel.FlowRecord, flowQueue)
	collector, err := netflow.Listen(addr, func(r netflow.Record, hdr netflow.Header) {
		if fr, ok := netflow.ToFlowRecord(r, hdr, edge); ok {
			select {
			case flows <- fr:
			default: // backpressure: drop rather than block the socket
			}
		}
	}, netflow.WithTelemetry(reg))
	if err != nil {
		return err
	}
	defer collector.Close()
	closed := false
	health.Register("collector", func() error {
		if closed {
			return fmt.Errorf("netflow collector closed")
		}
		return nil
	})
	fmt.Printf("listening for NetFlow v5 on %s, %v intervals, %s inference; Ctrl-C to stop\n",
		collector.Addr(), interval, det.InferenceEngine())

	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	report := func(res hifind.Result) {
		pkts, recs, malformed := collector.Stats()
		fmt.Printf("interval %d: %d datagrams, %d records, %d malformed, %d alerts\n",
			res.Interval, pkts, recs, malformed, len(res.Final))
		for _, a := range res.Final {
			fmt.Printf("  ALERT %s\n", a)
		}
	}
	observe := func(fr netmodel.FlowRecord) {
		det.ObserveFlow(hifind.Flow{
			SrcIP:   netip.AddrFrom4(fr.SrcIP.Octets()),
			DstIP:   netip.AddrFrom4(fr.DstIP.Octets()),
			SrcPort: fr.SrcPort,
			DstPort: fr.DstPort,
			Dir:     hifind.Direction(fr.Dir),
			SYNs:    fr.SYNs,
			SYNACKs: fr.SYNACKs,
		})
	}
	for {
		select {
		case fr := <-flows:
			observe(fr)
		case <-ticker.C:
			res, err := det.EndInterval()
			if err != nil {
				return err
			}
			report(res)
			if statePath != "" {
				data, err := det.SaveState()
				if err != nil {
					return err
				}
				if err := os.WriteFile(statePath, data, 0o644); err != nil {
					return err
				}
			}
		case <-ctx.Done():
			fmt.Println("\nshutting down")
			// Stop the source first so no flow arrives after the final
			// detection, then Close runs it over the partial interval —
			// the tail of the stream is detected, not dropped.
			if err := collector.Close(); err != nil {
				return err
			}
			closed = true
			for {
				select {
				case fr := <-flows:
					observe(fr)
					continue
				default:
				}
				break
			}
			res, err := det.Close()
			if err != nil {
				return err
			}
			report(res)
			if shed := det.Shed(); shed > 0 {
				fmt.Printf("%d events shed under overload\n", shed)
			}
			return nil
		}
	}
}
