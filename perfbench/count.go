package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"datalaws/internal/wal"
)

// connStats counts one class of server connections: bytes in each
// direction and the number of Write calls (each a socket write).
type connStats struct {
	read, written, writes atomic.Int64
}

// countingListener wraps the server's listener so every accepted connection
// is counted. Connections are filed under the role set at accept time, which
// keeps the replica's feed link apart from client sessions.
type countingListener struct {
	net.Listener

	mu       sync.Mutex
	role     string
	accepted int
	roles    map[string]*connStats
}

func newCountingListener(ln net.Listener, role string) *countingListener {
	return &countingListener{Listener: ln, role: role, roles: map[string]*connStats{}}
}

// setRole files connections accepted from now on under role.
func (l *countingListener) setRole(role string) {
	l.mu.Lock()
	l.role = role
	l.mu.Unlock()
}

// Accepted reports how many connections the listener has handed out.
func (l *countingListener) Accepted() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.accepted
}

// stats returns the counters of role, creating them on first use.
func (l *countingListener) stats(role string) *connStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.statsLocked(role)
}

func (l *countingListener) statsLocked(role string) *connStats {
	s, ok := l.roles[role]
	if !ok {
		s = &connStats{}
		l.roles[role] = s
	}
	return s
}

// Accept implements net.Listener.
func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	s := l.statsLocked(l.role)
	l.accepted++
	l.mu.Unlock()
	return &countingConn{Conn: c, s: s}, nil
}

// countingConn delegates to the real connection and counts its traffic.
type countingConn struct {
	net.Conn
	s *connStats
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.s.read.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.s.written.Add(int64(n))
	c.s.writes.Add(1)
	return n, err
}

// fsStats counts what the write-ahead log does to its files.
type fsStats struct {
	written, writes, syncs, syncNanos atomic.Int64
}

// countingFS wraps a wal.FS (the real wal.OSFS in every workload) and
// counts bytes written and time spent in File.Sync. Every call reaches the
// wrapped filesystem, so each fsync is still a real one.
type countingFS struct {
	wal.FS
	s *fsStats
}

func (f countingFS) OpenAppend(name string) (wal.File, int64, error) {
	file, size, err := f.FS.OpenAppend(name)
	if err != nil {
		return nil, 0, err
	}
	return countingFile{File: file, s: f.s}, size, nil
}

type countingFile struct {
	wal.File
	s *fsStats
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.s.written.Add(int64(n))
	f.s.writes.Add(1)
	return n, err
}

func (f countingFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.s.syncNanos.Add(int64(time.Since(t0)))
	f.s.syncs.Add(1)
	return err
}
