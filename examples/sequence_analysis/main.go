// Sequence analysis: the SwiftSeq-style many-task DNA pipeline from §2.1 —
// a dataflow of align → sort → variant-call stages per sample, joined by a
// cohort merge, running on HTEX with retries and checkpointing. Files flow
// between stages through the data manager; one flaky sample exercises the
// fault-tolerance path (§3.7).
//
//	go run ./examples/sequence_analysis
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro"

	"repro/internal/data"
	"repro/internal/dfk"
	"repro/internal/executor"
	"repro/internal/executor/htex"
	"repro/internal/provider"
	"repro/internal/simnet"
)

var flakyOnce atomic.Bool

func main() {
	workDir, err := os.MkdirTemp("", "swiftseq")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(workDir)

	dm, err := data.NewManager(filepath.Join(workDir, "staging"))
	if err != nil {
		log.Fatal(err)
	}
	reg := parsl.NewRegistry()
	ex := htex.New(htex.Config{
		Label:      "htex",
		Transport:  simnet.NewNetwork(0),
		Registry:   reg,
		Provider:   provider.NewLocal(provider.Config{NodesPerBlock: 4}),
		InitBlocks: 1,
		Manager:    htex.ManagerConfig{Workers: 2, Prefetch: 2},
	})
	d, err := parsl.New(dfk.Config{
		Registry:    reg,
		Executors:   []executor.Executor{ex},
		Retries:     2, // long-running genomics tools need retry on transient failure
		Memoize:     true,
		Checkpoint:  filepath.Join(workDir, "checkpoint"),
		DataManager: dm,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer d.Shutdown()

	// Pipeline stages. Each tool reads its input file and writes an output
	// file; Parsl tracks the files as dataflow edges.
	align, err := d.PythonApp("align", func(args []any, _ map[string]any) (any, error) {
		sample := args[0].(*data.File)
		reads, err := os.ReadFile(sample.LocalPath())
		if err != nil {
			return nil, err
		}
		// A transient infrastructure failure on the first attempt of one
		// sample; the DFK retry budget absorbs it.
		if strings.Contains(sample.Filename(), "sample2") && !flakyOnce.Swap(true) {
			return nil, fmt.Errorf("node scratch filled up (transient)")
		}
		time.Sleep(10 * time.Millisecond) // alignment is minutes-to-hours in production
		out := sample.LocalPath() + ".bam"
		if err := os.WriteFile(out, []byte("BAM:"+string(reads)), 0o644); err != nil {
			return nil, err
		}
		return out, nil
	})
	must(err)

	sortApp, err := d.PythonApp("sort", func(args []any, _ map[string]any) (any, error) {
		bam := args[0].(string)
		payload, err := os.ReadFile(bam)
		if err != nil {
			return nil, err
		}
		out := bam + ".sorted"
		return out, os.WriteFile(out, []byte("SORTED:"+string(payload)), 0o644)
	})
	must(err)

	call, err := d.PythonApp("variant_call", func(args []any, _ map[string]any) (any, error) {
		sorted := args[0].(string)
		payload, err := os.ReadFile(sorted)
		if err != nil {
			return nil, err
		}
		variants := fmt.Sprintf("VCF(%d bytes input)", len(payload))
		return variants, nil
	})
	must(err)

	merge, err := d.PythonApp("cohort_merge", func(args []any, _ map[string]any) (any, error) {
		vcfs := args[0].([]any)
		return fmt.Sprintf("cohort of %d VCFs", len(vcfs)), nil
	})
	must(err)

	// Create input samples (thousands of multi-GB genomes in production).
	ctx := context.Background()
	const samples = 8
	var vcfFutures []any
	for i := 0; i < samples; i++ {
		path := filepath.Join(workDir, fmt.Sprintf("sample%d.fastq", i))
		if err := os.WriteFile(path, []byte(fmt.Sprintf("reads-for-sample-%d", i)), 0o644); err != nil {
			log.Fatal(err)
		}
		sample := parsl.MustFile(path)
		// Chain per-sample stages by passing futures (§3.3); the samples
		// themselves run concurrently. Retries are tuned per stage: aligners
		// flake, so alignment gets one attempt beyond the DFK-wide budget.
		bam := align.Submit(ctx, []any{sample}, parsl.WithRetries(3))
		sorted := sortApp.Submit(ctx, []any{bam})
		vcfFutures = append(vcfFutures, call.Submit(ctx, []any{sorted}))
	}
	cohort, err := merge.Submit(ctx, []any{vcfFutures}).ResultCtx(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("pipeline complete:", cohort)

	summary := d.Summary()
	fmt.Printf("tasks: %v (one align retried transparently)\n", summary)
	hits, misses := d.Memoizer().Stats()
	fmt.Printf("memo: %d hits, %d misses; checkpoint persisted for restart-without-rerun\n", hits, misses)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
