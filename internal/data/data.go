// Package data implements Parsl's data management layer (§4.5): the File
// abstraction that keeps programs location independent, and the data manager
// that stages remote files in/out and transparently translates paths. Files
// can be local, http(s)://, or ftp:// references; the manager turns a remote
// reference into a local path in the run's working directory.
//
// Stage-ins execute as ordinary transfer tasks: the DFK injects them into the
// task graph, so a transfer occupies a worker like any other task.
package data

import (
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"path"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/ftp"
	"repro/internal/serialize"
)

func init() {
	gob.Register(&File{})
	gob.Register([]*File{})
}

// Schemes understood by the data manager.
const (
	SchemeFile  = "file"
	SchemeHTTP  = "http"
	SchemeHTTPS = "https"
	SchemeFTP   = "ftp"
)

// ErrUnsupportedScheme is returned for URLs the manager cannot stage.
var ErrUnsupportedScheme = errors.New("data: unsupported scheme")

// File is a location-independent file reference. Programs pass *File values
// to apps; the runtime replaces them with staged local paths before the app
// body runs. Fields are exported for gob transport; treat them as read-only.
type File struct {
	URL    string
	Scheme string
	Host   string
	Path   string
	// Local is the staged local path ("" before staging). It is exported so
	// the translation survives the serialization boundary to workers; use
	// LocalPath/SetLocalPath rather than touching it directly.
	Local string

	mu sync.Mutex
}

// NewFile parses a file reference. Plain paths become file:// references.
func NewFile(rawurl string) (*File, error) {
	if rawurl == "" {
		return nil, errors.New("data: empty file URL")
	}
	f := &File{URL: rawurl}
	switch {
	case strings.HasPrefix(rawurl, "http://"):
		f.Scheme = SchemeHTTP
	case strings.HasPrefix(rawurl, "https://"):
		f.Scheme = SchemeHTTPS
	case strings.HasPrefix(rawurl, "ftp://"):
		f.Scheme = SchemeFTP
	case strings.HasPrefix(rawurl, "file://"):
		f.Scheme = SchemeFile
		f.Path = strings.TrimPrefix(rawurl, "file://")
		return f, nil
	case strings.Contains(rawurl, "://"):
		return nil, fmt.Errorf("%w: %s", ErrUnsupportedScheme, rawurl)
	default:
		f.Scheme = SchemeFile
		f.Path = rawurl
		return f, nil
	}
	rest := rawurl[strings.Index(rawurl, "://")+3:]
	slash := strings.IndexByte(rest, '/')
	if slash < 0 {
		return nil, fmt.Errorf("data: %s has no path component", rawurl)
	}
	f.Host = rest[:slash]
	f.Path = rest[slash:]
	if f.Host == "" {
		return nil, fmt.Errorf("data: %s has no host component", rawurl)
	}
	return f, nil
}

// MustFile is NewFile that panics, for tests and examples with literal URLs.
func MustFile(rawurl string) *File {
	f, err := NewFile(rawurl)
	if err != nil {
		panic(err)
	}
	return f
}

// Filename returns the base name of the file.
func (f *File) Filename() string { return path.Base(f.Path) }

// Remote reports whether staging is required before local use.
func (f *File) Remote() bool { return f.Scheme != SchemeFile }

// LocalPath returns the translated local path, or "" before staging. Local
// files translate to themselves.
func (f *File) LocalPath() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.Local != "" {
		return f.Local
	}
	if f.Scheme == SchemeFile {
		return f.Path
	}
	return ""
}

// SetLocalPath records the staged location (called by the data manager).
func (f *File) SetLocalPath(p string) {
	f.mu.Lock()
	f.Local = p
	f.mu.Unlock()
}

// Staged reports whether the file is usable locally.
func (f *File) Staged() bool { return f.LocalPath() != "" }

// String implements fmt.Stringer.
func (f *File) String() string { return f.URL }

// StageStats counts the staging layer's traffic, separating bytes actually
// moved from bytes saved by the content-addressed indexes. The locality
// scenario reads these to prove a warm run moves ~0 bytes.
type StageStats struct {
	// Fetches is remote transfers actually performed; FetchedBytes the bytes
	// they moved.
	Fetches      int64
	FetchedBytes int64
	// URLReuses is stage-ins served whole from the URL index — no transfer
	// at all. DigestReuses is transfers whose content matched an
	// already-staged copy byte for byte (same digest under a different URL);
	// the duplicate is discarded and the staged copy shared.
	URLReuses    int64
	DigestReuses int64
	// ReusedBytes is the bytes reuse avoided moving or duplicating.
	ReusedBytes int64
}

// Manager stages files to and from the run's working directory. Staged
// content is indexed twice — by source URL (repeat stage-ins of the same
// reference skip the transfer entirely) and by content digest (distinct URLs
// carrying identical bytes share one staged copy) — so a warm run's staging
// cost collapses to index lookups.
type Manager struct {
	workDir    string
	httpClient *http.Client

	mu       sync.Mutex
	stageSeq int64
	byURL    map[string]string // source URL -> staged local path
	byDigest map[string]string // content digest -> staged local path
	stats    StageStats
}

// NewManager creates a manager staging into workDir (created if absent).
func NewManager(workDir string) (*Manager, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, fmt.Errorf("data: workdir: %w", err)
	}
	m := &Manager{
		workDir:    workDir,
		httpClient: &http.Client{Timeout: 30 * time.Second},
		byURL:      make(map[string]string),
		byDigest:   make(map[string]string),
	}
	return m, nil
}

// WorkDir returns the staging directory.
func (m *Manager) WorkDir() string { return m.workDir }

// stagePath allocates a unique local destination for a file.
func (m *Manager) stagePath(f *File) string {
	m.mu.Lock()
	m.stageSeq++
	seq := m.stageSeq
	m.mu.Unlock()
	return filepath.Join(m.workDir, fmt.Sprintf("stage%04d_%s", seq, f.Filename()))
}

// StageIn makes f available locally and returns the translated path. Local
// files pass through; remote files are fetched per scheme. The translated
// path is also recorded on the File so later references resolve without
// re-transfer ("the data manager first inspects the file to see if it is
// available", §4.5).
func (m *Manager) StageIn(f *File) (string, error) {
	if p := f.LocalPath(); p != "" {
		return p, nil
	}
	// URL index: a different *File naming the same source was already staged;
	// hand it the same local copy with no transfer at all.
	m.mu.Lock()
	if p, ok := m.byURL[f.URL]; ok {
		if fi, err := os.Stat(p); err == nil {
			m.stats.URLReuses++
			m.stats.ReusedBytes += fi.Size()
			m.mu.Unlock()
			f.SetLocalPath(p)
			return p, nil
		}
		// The staged copy vanished out from under the index; re-fetch.
		delete(m.byURL, f.URL)
	}
	m.mu.Unlock()
	dst := m.stagePath(f)
	var digest string
	var size int64
	var err error
	switch f.Scheme {
	case SchemeHTTP, SchemeHTTPS:
		digest, size, err = m.stageHTTP(f, dst)
	case SchemeFTP:
		digest, size, err = m.stageFTP(f, dst)
	default:
		return "", fmt.Errorf("%w: %s", ErrUnsupportedScheme, f.Scheme)
	}
	if err != nil {
		return "", err
	}
	final := m.commitStage(f.URL, digest, dst, size)
	f.SetLocalPath(final)
	return final, nil
}

// commitStage indexes one fetched file by URL and content digest. When an
// identical copy is already staged (same digest, typically under another
// URL), the fresh duplicate is deleted and the existing path shared.
func (m *Manager) commitStage(url, digest, dst string, size int64) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.Fetches++
	m.stats.FetchedBytes += size
	if p, ok := m.byDigest[digest]; ok && p != dst {
		if _, err := os.Stat(p); err == nil {
			m.stats.DigestReuses++
			m.stats.ReusedBytes += size
			m.byURL[url] = p
			_ = os.Remove(dst)
			return p
		}
		delete(m.byDigest, digest)
	}
	m.byDigest[digest] = dst
	m.byURL[url] = dst
	return dst
}

// Stats snapshots the staging layer's fetch/reuse counters.
func (m *Manager) Stats() StageStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// contentDigest is the %016x FNV-64a content hash — the same digest format
// serialize.Payload.ArgsHash reports, so staging, memoization, and the
// interchange's warm-digest record speak one digest vocabulary.
func contentDigest(b []byte) string {
	return string(serialize.AppendDigest(nil, serialize.Digest(b)))
}

// stageHTTP fetches f over HTTP(S) into dst, hashing the stream while it
// copies (no second pass over the bytes), and reports the content digest and
// size for the staging indexes.
func (m *Manager) stageHTTP(f *File, dst string) (string, int64, error) {
	resp, err := m.httpClient.Get(f.URL)
	if err != nil {
		return "", 0, fmt.Errorf("data: http stage-in %s: %w", f.URL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", 0, fmt.Errorf("data: http stage-in %s: status %d", f.URL, resp.StatusCode)
	}
	out, err := os.Create(dst)
	if err != nil {
		return "", 0, fmt.Errorf("data: create %s: %w", dst, err)
	}
	h := fnv.New64a()
	n, err := io.Copy(io.MultiWriter(out, h), resp.Body)
	if err != nil {
		_ = out.Close()
		return "", 0, fmt.Errorf("data: http stage-in %s: %w", f.URL, err)
	}
	if err := out.Close(); err != nil {
		return "", 0, err
	}
	return string(serialize.AppendDigest(nil, h.Sum64())), n, nil
}

func (m *Manager) stageFTP(f *File, dst string) (string, int64, error) {
	c, err := ftp.Dial(f.Host)
	if err != nil {
		return "", 0, fmt.Errorf("data: ftp stage-in %s: %w", f.URL, err)
	}
	defer c.Quit()
	payload, err := c.Retr(strings.TrimPrefix(f.Path, "/"))
	if err != nil {
		return "", 0, fmt.Errorf("data: ftp stage-in %s: %w", f.URL, err)
	}
	if err := os.WriteFile(dst, payload, 0o644); err != nil {
		return "", 0, err
	}
	return contentDigest(payload), int64(len(payload)), nil
}

// StageOut pushes a local file to the remote location f names. Supported for
// file:// and ftp:// outputs.
func (m *Manager) StageOut(f *File, localPath string) error {
	payload, err := os.ReadFile(localPath)
	if err != nil {
		return fmt.Errorf("data: stage-out read %s: %w", localPath, err)
	}
	switch f.Scheme {
	case SchemeFile:
		if err := os.MkdirAll(filepath.Dir(f.Path), 0o755); err != nil {
			return err
		}
		return os.WriteFile(f.Path, payload, 0o644)
	case SchemeFTP:
		c, err := ftp.Dial(f.Host)
		if err != nil {
			return fmt.Errorf("data: ftp stage-out %s: %w", f.URL, err)
		}
		defer c.Quit()
		return c.Stor(strings.TrimPrefix(f.Path, "/"), payload)
	default:
		return fmt.Errorf("%w for stage-out: %s", ErrUnsupportedScheme, f.Scheme)
	}
}
