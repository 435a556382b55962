// Quickstart: the §3.1 programming model — Python-style apps, Bash apps,
// futures, and implicit dataflow from passing futures between apps.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	ctx := context.Background()
	// A DFK over a local 4-worker thread pool: the laptop configuration.
	d, err := parsl.NewLocal(4)
	if err != nil {
		log.Fatal(err)
	}
	defer d.Shutdown()

	// @python_app equivalent (§3.1.1).
	hello, err := d.PythonApp("hello1", func(args []any, _ map[string]any) (any, error) {
		return fmt.Sprintf("Hello %v", args[0]), nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// @bash_app equivalent: the function renders a shell fragment; the
	// result carries the UNIX exit code.
	hello2, err := d.BashApp("hello2", func(args []any, _ map[string]any) (string, error) {
		return fmt.Sprintf("echo 'Hello %v'", args[0]), nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// Submission returns futures immediately (§3.1.2). The context-aware
	// entry point accepts per-call options; canceling ctx would cancel the
	// task and fail its dependents.
	f1 := hello.Submit(ctx, []any{"World"})
	f2 := hello2.Submit(ctx, []any{"World"})

	// The typed adapter trades `any` for compile-time types.
	greet := parsl.Typed1[string, string](hello)
	if msg, err := greet(ctx, "typed World").Result(ctx); err == nil {
		fmt.Println("typed app:", msg) // msg is a string, no assertion
	}

	v, err := f1.ResultCtx(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("python app:", v)
	if bv, err := f2.Result(); err != nil {
		fmt.Println("bash app unavailable on this host:", err)
	} else {
		fmt.Printf("bash app: exit code %d\n", bv.(parsl.BashResult).ExitCode)
	}

	// Compositionality (§3.3): passing futures creates dependencies; the
	// DFK runs this diamond with maximum available parallelism.
	add, err := d.PythonApp("add", func(args []any, _ map[string]any) (any, error) {
		sum := 0
		for _, a := range args {
			sum += a.(int)
		}
		return sum, nil
	})
	if err != nil {
		log.Fatal(err)
	}
	// The high-priority branch jumps ahead when an executor lane backs up.
	root := add.Submit(ctx, []any{1})
	left := add.Submit(ctx, []any{root, 10}, parsl.WithPriority(1))
	right := add.Submit(ctx, []any{root, 100})
	joined := add.Submit(ctx, []any{left, right})
	total, err := joined.ResultCtx(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("diamond dataflow result:", total) // (1+10)+(1+100) = 112
	// The DFK counts tasks rather than holding them: after the drain every
	// task is in Summary's tallies and none is outstanding.
	d.WaitAll()
	fmt.Println("tasks concluded:", d.Summary(), "outstanding:", d.Outstanding())
}
