package dfk

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/future"
)

// echoApp registers an app that prints its positional arguments (futures
// resolved), space-separated, and then its "word" keyword argument, if any.
func echoApp(t *testing.T, d *DFK, name string) *App {
	t.Helper()
	a, err := d.PythonApp(name, func(args []any, kwargs map[string]any) (any, error) {
		s := strings.TrimSuffix(fmt.Sprintln(args...), "\n")
		if w, ok := kwargs["word"]; ok {
			s += fmt.Sprint(" ", w)
		}
		return s, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestWaitingTaskArgsFixedAtSubmit: a task that waits on an input launches
// after Submit returns, yet a caller that reassigns an element of its
// argument slice after Submit changes nothing the app sees.
func TestWaitingTaskArgsFixedAtSubmit(t *testing.T) {
	d := newDFK(t, nil)
	echo := echoApp(t, d, "args-echo")
	gate := future.New()
	args := []any{gate, "submitted"}
	fut := echo.Submit(context.Background(), args)
	args[1] = "mutated after Submit"
	_ = gate.SetResult(1)
	if v, err := fut.Result(); err != nil || v != "1 submitted" {
		t.Fatalf("echo = %q, %v; want the submit-time arguments", v, err)
	}
	if args[0] != gate {
		t.Fatalf("the caller's slice was written: %v", args)
	}
}

// TestWaitingTaskKwargsFixedAtSubmit: the same for a keyword argument the
// caller reassigns in its map after Submit.
func TestWaitingTaskKwargsFixedAtSubmit(t *testing.T) {
	d := newDFK(t, nil)
	echo := echoApp(t, d, "kwargs-echo")
	gate := future.New()
	kwargs := map[string]any{"word": "submitted"}
	fut := echo.SubmitKw(context.Background(), kwargs, []any{gate})
	kwargs["word"] = "mutated after Submit"
	_ = gate.SetResult(1)
	if v, err := fut.Result(); err != nil || v != "1 submitted" {
		t.Fatalf("echo = %q, %v; want the submit-time keyword arguments", v, err)
	}
}

// TestWaitingTaskArgsFixedAtSubmitOverHTEX: the same over htex, where the
// arguments cross the wire as bytes; the list argument is one the value
// snapshot refuses, so launch encodes them.
func TestWaitingTaskArgsFixedAtSubmitOverHTEX(t *testing.T) {
	d := newHTEXDFK(t, 1, 1, nil)
	echo := echoApp(t, d, "args-echo-htex")
	gate := future.New()
	args := []any{gate, "submitted", []int{300}}
	fut := echo.Submit(context.Background(), args)
	args[1], args[2] = "mutated after Submit", []int{301}
	_ = gate.SetResult(1)
	if v, err := fut.Result(); err != nil || v != "1 submitted [300]" {
		t.Fatalf("echo over htex = %q, %v; want the submit-time arguments", v, err)
	}
}

// TestNestedInputResolvedInACopy: a future inside a []any argument resolves
// for the app, and the caller's inner slice still holds the future afterwards:
// launch resolves into a copy of it, never into the caller's memory. The
// outer list, reused after Submit, changes nothing either.
func TestNestedInputResolvedInACopy(t *testing.T) {
	d := newDFK(t, nil)
	echo := echoApp(t, d, "nested-echo")
	gate := future.New()
	inner := []any{gate, 300}
	args := []any{inner, "submitted"}
	fut := echo.Submit(context.Background(), args)
	args[1] = "mutated after Submit"
	_ = gate.SetResult(1)
	if v, err := fut.Result(); err != nil || v != "[1 300] submitted" {
		t.Fatalf("echo = %q, %v; want the resolved list and the submit-time arguments", v, err)
	}
	if inner[0] != gate {
		t.Fatalf("the caller's inner slice was written: %v", inner)
	}
}
