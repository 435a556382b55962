package dfk

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/data"
	"repro/internal/executor"
	"repro/internal/executor/threadpool"
	"repro/internal/ftp"
	"repro/internal/future"
	"repro/internal/serialize"
	"repro/internal/task"
)

func newDataDFK(t *testing.T) *DFK {
	t.Helper()
	dm, err := data.NewManager(filepath.Join(t.TempDir(), "work"))
	if err != nil {
		t.Fatal(err)
	}
	reg := serialize.NewRegistry()
	d, err := New(Config{
		Seed:        1,
		Registry:    reg,
		Executors:   []executor.Executor{threadpool.New("tp", 4, reg)},
		DataManager: dm,
		// Data tests look for hidden staging tasks in the graph afterwards.
		RetainRecords: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Shutdown() })
	return d
}

// readFileApp returns an app that reads a *data.File's staged content.
func readFileApp(t *testing.T, d *DFK) *App {
	t.Helper()
	a, err := d.PythonApp("readfile", func(args []any, _ map[string]any) (any, error) {
		f := args[0].(*data.File)
		b, err := os.ReadFile(f.LocalPath())
		if err != nil {
			return nil, err
		}
		return string(b), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestImplicitHTTPStagingTask(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("remote-payload"))
	}))
	defer srv.Close()

	d := newDataDFK(t)
	read := readFileApp(t, d)
	f := data.MustFile(srv.URL + "/input.dat")
	v, err := read.Call(f).Result()
	if err != nil {
		t.Fatal(err)
	}
	if v != "remote-payload" {
		t.Fatalf("v = %v", v)
	}
	// A hidden staging task must exist in the graph.
	stagingTasks := 0
	for _, rec := range d.Graph().Tasks() {
		if rec.AppName == "_parsl_stage_in" {
			stagingTasks++
			if rec.State() != task.Done {
				t.Fatalf("staging task state = %v", rec.State())
			}
		}
	}
	if stagingTasks != 1 {
		t.Fatalf("staging tasks = %d", stagingTasks)
	}
}

func TestStagingSharedAcrossTasks(t *testing.T) {
	hits := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		_, _ = w.Write([]byte("shared"))
	}))
	defer srv.Close()

	d := newDataDFK(t)
	read := readFileApp(t, d)
	f := data.MustFile(srv.URL + "/shared.dat")
	// First consumer stages; later consumers reuse the translation.
	if _, err := read.Call(f).Result(); err != nil {
		t.Fatal(err)
	}
	var futs []*future.Future
	for i := 0; i < 5; i++ {
		futs = append(futs, read.Call(f))
	}
	if err := future.Wait(futs...); err != nil {
		t.Fatal(err)
	}
	if hits != 1 {
		t.Fatalf("server hit %d times, want 1 (staged once)", hits)
	}
}

func TestStagingFailureFailsDependentTask(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	defer srv.Close()
	d := newDataDFK(t)
	read := readFileApp(t, d)
	_, err := read.Call(data.MustFile(srv.URL + "/missing")).Result()
	if err == nil {
		t.Fatal("task with failed staging succeeded")
	}
}

func TestOutputStagingToFTP(t *testing.T) {
	d := newDataDFK(t)
	write, err := d.PythonApp("writeout", func(args []any, kwargs map[string]any) (any, error) {
		outs := kwargs["outputs"].([]*data.File)
		return nil, os.WriteFile(outs[0].LocalPath(), []byte("result-bytes"), 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Local outputs translate to themselves: the app writes directly to
	// the final home, no stage-out task needed.
	final := filepath.Join(t.TempDir(), "out.txt")
	o := data.MustFile(final)
	if _, err := write.CallKw(map[string]any{"outputs": []*data.File{o}}).Result(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(final)
	if err != nil || string(b) != "result-bytes" {
		t.Fatalf("output = %q, %v", b, err)
	}
}

func TestRemoteOutputPreassignedLocalHome(t *testing.T) {
	archive := t.TempDir()
	srv, err := ftp.NewServer("127.0.0.1:0", archive)
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	defer srv.Close()
	d := newDataDFK(t)

	write, err := d.PythonApp("writeremote", func(args []any, kwargs map[string]any) (any, error) {
		outs := kwargs["outputs"].([]*data.File)
		if outs[0].LocalPath() == "" {
			return nil, os.ErrNotExist
		}
		return nil, os.WriteFile(outs[0].LocalPath(), []byte("pixels"), 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	out := data.MustFile("ftp://" + srv.Addr() + "/lsst/img1.fits")
	if _, err := write.CallKw(map[string]any{"outputs": []*data.File{out}}).Result(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(archive, "lsst", "img1.fits"))
	if err != nil || string(got) != "pixels" {
		t.Fatalf("archive content = %q, %v", got, err)
	}
}
