package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	stableleader "stableleader"
)

// sleepCtx sleeps for d or until ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// dumpFlight writes the protocol flight recorder of a node that raised a
// spurious suspicion or demotion next to the results: such an event is what
// the QoS contract forbids, so it must be explainable, not averaged away.
func (o *runOpts) dumpFlight(ctx context.Context, workload string, svc *stableleader.Service) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench: flight dump:", err)
		return
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("bench-flight-%s-%s.json", workload, svc.ID()))
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: flight dump:", err)
		return
	}
	dctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if err := svc.DumpFlight(dctx, f); err != nil {
		fmt.Fprintln(os.Stderr, "bench: flight dump:", err)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "bench: flight dump:", err)
	}
	fmt.Fprintf(os.Stderr, "bench: %s: spurious event at %s, flight recorder in %s\n", workload, svc.ID(), path)
}
