package data

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/ftp"
)

func TestNewFileSchemes(t *testing.T) {
	cases := []struct {
		url, scheme, host, path string
	}{
		{"/tmp/x.dat", SchemeFile, "", "/tmp/x.dat"},
		{"file:///tmp/y.dat", SchemeFile, "", "/tmp/y.dat"},
		{"relative/z.dat", SchemeFile, "", "relative/z.dat"},
		{"http://mdf.org/data/a.csv", SchemeHTTP, "mdf.org", "/data/a.csv"},
		{"https://mdf.org/b.csv", SchemeHTTPS, "mdf.org", "/b.csv"},
		{"ftp://mirror:21/pub/c.gz", SchemeFTP, "mirror:21", "/pub/c.gz"},
	}
	for _, c := range cases {
		f, err := NewFile(c.url)
		if err != nil {
			t.Fatalf("%s: %v", c.url, err)
		}
		if f.Scheme != c.scheme || f.Host != c.host || f.Path != c.path {
			t.Fatalf("%s parsed as %q %q %q", c.url, f.Scheme, f.Host, f.Path)
		}
	}
}

func TestNewFileErrors(t *testing.T) {
	for _, c := range []struct {
		url         string
		unsupported bool
	}{
		{"", false},
		{"gopher://x/y", true},
		{"globus://alcf/sim/d.bin", true},
		{"http://nopath", false},
		{"http:///missinghost", false},
	} {
		_, err := NewFile(c.url)
		if err == nil {
			t.Errorf("%q accepted", c.url)
		} else if c.unsupported && !errors.Is(err, ErrUnsupportedScheme) {
			t.Errorf("%q: err = %v, want ErrUnsupportedScheme", c.url, err)
		}
	}
}

func TestMustFilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustFile did not panic")
		}
	}()
	MustFile("gopher://bad/x")
}

func TestFileAccessors(t *testing.T) {
	f := MustFile("http://host/dir/genome.fa")
	if f.Filename() != "genome.fa" {
		t.Fatalf("filename = %q", f.Filename())
	}
	if !f.Remote() {
		t.Fatal("http file not remote")
	}
	if f.Staged() {
		t.Fatal("unstaged file reports staged")
	}
	f.SetLocalPath("/work/genome.fa")
	if f.LocalPath() != "/work/genome.fa" || !f.Staged() {
		t.Fatal("local path lost")
	}
	if f.String() != "http://host/dir/genome.fa" {
		t.Fatalf("String = %q", f.String())
	}
}

func TestLocalFileTranslatesToItself(t *testing.T) {
	f := MustFile("/abs/path.txt")
	if f.Remote() {
		t.Fatal("local file reports remote")
	}
	if f.LocalPath() != "/abs/path.txt" {
		t.Fatalf("local path = %q", f.LocalPath())
	}
}

func TestStageInLocalPassThrough(t *testing.T) {
	m, err := NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f := MustFile("/some/local.file")
	p, err := m.StageIn(f)
	if err != nil || p != "/some/local.file" {
		t.Fatalf("stage-in local: %q, %v", p, err)
	}
}

func TestStageInHTTP(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/model/weights.bin" {
			http.NotFound(w, r)
			return
		}
		_, _ = w.Write([]byte("weights"))
	}))
	defer srv.Close()

	m, err := NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f := MustFile(srv.URL + "/model/weights.bin")
	p, err := m.StageIn(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(p)
	if err != nil || string(got) != "weights" {
		t.Fatalf("staged content %q, %v", got, err)
	}
	if f.LocalPath() != p {
		t.Fatal("file not marked staged")
	}
	// Second stage-in is a no-op returning the same path.
	p2, err := m.StageIn(f)
	if err != nil || p2 != p {
		t.Fatalf("re-stage: %q, %v", p2, err)
	}
}

func TestStageInHTTP404(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	defer srv.Close()
	m, _ := NewManager(t.TempDir())
	f := MustFile(srv.URL + "/gone")
	if _, err := m.StageIn(f); err == nil {
		t.Fatal("404 staged successfully")
	}
}

func TestStageInFTP(t *testing.T) {
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "ref.fa"), []byte("ACGT"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := ftp.NewServer("127.0.0.1:0", root)
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	defer srv.Close()

	m, _ := NewManager(t.TempDir())
	f := MustFile("ftp://" + srv.Addr() + "/ref.fa")
	p, err := m.StageIn(f)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(p)
	if string(got) != "ACGT" {
		t.Fatalf("staged %q", got)
	}
}

func TestStageOutFile(t *testing.T) {
	dir := t.TempDir()
	m, _ := NewManager(dir)
	src := filepath.Join(dir, "result.txt")
	if err := os.WriteFile(src, []byte("out"), 0o644); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "published", "result.txt")
	if err := m.StageOut(MustFile(dst), src); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(dst)
	if string(got) != "out" {
		t.Fatalf("staged out %q", got)
	}
}

func TestStageOutFTP(t *testing.T) {
	root := t.TempDir()
	srv, err := ftp.NewServer("127.0.0.1:0", root)
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	defer srv.Close()
	dir := t.TempDir()
	m, _ := NewManager(dir)
	src := filepath.Join(dir, "up.dat")
	_ = os.WriteFile(src, []byte("upload"), 0o644)
	if err := m.StageOut(MustFile("ftp://"+srv.Addr()+"/in/up.dat"), src); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(root, "in", "up.dat"))
	if err != nil || string(got) != "upload" {
		t.Fatalf("ftp stage-out: %q, %v", got, err)
	}
}

func TestStageOutUnsupported(t *testing.T) {
	dir := t.TempDir()
	m, _ := NewManager(dir)
	src := filepath.Join(dir, "x")
	_ = os.WriteFile(src, nil, 0o644)
	if err := m.StageOut(MustFile("http://host/x"), src); !errors.Is(err, ErrUnsupportedScheme) {
		t.Fatalf("err = %v", err)
	}
}

func TestStageOutMissingLocal(t *testing.T) {
	m, _ := NewManager(t.TempDir())
	if err := m.StageOut(MustFile("/dst"), "/no/such/file"); err == nil {
		t.Fatal("missing local staged out")
	}
}

func TestStagePathsUnique(t *testing.T) {
	m, _ := NewManager(t.TempDir())
	a := m.stagePath(MustFile("http://h/same.bin"))
	b := m.stagePath(MustFile("http://h/same.bin"))
	if a == b {
		t.Fatal("stage paths collide for identical filenames")
	}
}

func TestStageInURLDedup(t *testing.T) {
	var fetches atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fetches.Add(1)
		_, _ = w.Write([]byte("shared-bytes"))
	}))
	defer srv.Close()

	m, err := NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Two distinct File handles for the same URL (two tasks naming the same
	// input): one transfer, the second resolves from the URL index.
	a := MustFile(srv.URL + "/data.bin")
	b := MustFile(srv.URL + "/data.bin")
	pa, err := m.StageIn(a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := m.StageIn(b)
	if err != nil {
		t.Fatal(err)
	}
	if pa != pb {
		t.Fatalf("same URL staged twice: %q vs %q", pa, pb)
	}
	if fetches.Load() != 1 {
		t.Fatalf("server saw %d fetches, want 1", fetches.Load())
	}
	st := m.Stats()
	if st.Fetches != 1 || st.URLReuses != 1 || st.DigestReuses != 0 {
		t.Fatalf("stats = %+v, want 1 fetch / 1 URL reuse", st)
	}
	if st.ReusedBytes != int64(len("shared-bytes")) {
		t.Fatalf("ReusedBytes = %d", st.ReusedBytes)
	}
}

func TestStageInDigestDedup(t *testing.T) {
	var fetches atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fetches.Add(1)
		_, _ = w.Write([]byte("identical-content"))
	}))
	defer srv.Close()

	m, err := NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Two different URLs serving byte-identical content: both transfers
	// happen (the URL index can't know in advance), but the second copy is
	// discarded and both files share one staged path.
	a := MustFile(srv.URL + "/mirror-one/data.bin")
	b := MustFile(srv.URL + "/mirror-two/data.bin")
	pa, err := m.StageIn(a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := m.StageIn(b)
	if err != nil {
		t.Fatal(err)
	}
	if pa != pb {
		t.Fatalf("identical content staged at two paths: %q vs %q", pa, pb)
	}
	if fetches.Load() != 2 {
		t.Fatalf("server saw %d fetches, want 2", fetches.Load())
	}
	got, err := os.ReadFile(pa)
	if err != nil || string(got) != "identical-content" {
		t.Fatalf("staged content %q, %v", got, err)
	}
	st := m.Stats()
	if st.Fetches != 2 || st.DigestReuses != 1 || st.URLReuses != 0 {
		t.Fatalf("stats = %+v, want 2 fetches / 1 digest reuse", st)
	}
	// A third handle for the second URL now rides the URL index.
	c := MustFile(srv.URL + "/mirror-two/data.bin")
	pc, err := m.StageIn(c)
	if err != nil || pc != pa {
		t.Fatalf("URL-index after digest dedup: %q, %v", pc, err)
	}
	if st := m.Stats(); st.URLReuses != 1 {
		t.Fatalf("URLReuses = %d after third stage", st.URLReuses)
	}
}
