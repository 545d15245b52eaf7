package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/cbqt"
	"repro/internal/obsv"
	"repro/internal/plancache"
	"repro/internal/storage"
)

// Server metric names published to the registry.
const (
	MetricSessionsOpened = "server.sessions.opened"
	MetricSessionsClosed = "server.sessions.closed"
	MetricSessionsActive = "server.sessions.active"
	MetricQueries        = "server.queries"
	MetricFetches        = "server.fetches"
	MetricRowsSent       = "server.rows_sent"
	MetricBytesSent      = "server.bytes_sent" // every byte written to a session socket, frame headers included
	MetricErrors         = "server.errors"
)

// DefaultFetchRows is the fetch batch size when the client asks for <= 0.
const DefaultFetchRows = 256

// ErrDraining rejects new work while the server shuts down; in-flight
// cursors may still be fetched to completion.
var ErrDraining = errors.New("server: draining: no new statements accepted")

// Config assembles a Server.
type Config struct {
	// DB is the shared database. Every statement — reads, writes, ANALYZE
	// — executes against its own MVCC snapshot, so nothing serializes
	// against anything: writers commit while readers scan older versions.
	DB *storage.DB
	// Opts is the base optimizer configuration; sessions refine strategy
	// and budget per connection. Opts.Metrics is overridden with Registry.
	Opts cbqt.Options
	// Registry receives server, session, plan-cache and optimizer counters.
	// Nil allocates a private registry.
	Registry *obsv.Registry
	// CacheMaxEntries bounds the plan cache, and the CBQT decision store
	// beside it (<= 0: plancache default).
	CacheMaxEntries int
	// NoDecisionStore leaves the server without a decision store, so every
	// plan-cache miss searches in full.
	NoDecisionStore bool

	// MaxInflight bounds concurrent optimize+execute spans across all
	// sessions (<= 0: unlimited, admission control off). Requests beyond
	// the bound wait in a bounded queue; requests beyond the queue are
	// shed with a typed retryable OVERLOADED error.
	MaxInflight int
	// MaxQueue bounds requests waiting for an inflight slot (<= 0 with
	// MaxInflight set: no queue, saturated requests shed immediately).
	MaxQueue int
	// QueueWait bounds how long a queued request waits before it is shed
	// (<= 0: DefaultQueueWait).
	QueueWait time.Duration
	// MemHighWaterBytes sheds new optimize spans once the reserved
	// per-query optimizer-memory estimate (an EWMA of cbqt
	// Stats.MemoStateBytes across completed optimizations) would cross
	// this mark (<= 0: off). Only meaningful with MaxInflight set.
	MemHighWaterBytes int64
	// IdleTimeout reaps sessions that send no frame for this long (<= 0:
	// never). Heartbeat ping frames reset the timer, so a deliberately
	// idle client can hold its session — and its cursors — alive, while a
	// dead peer cannot pin a graceful drain.
	IdleTimeout time.Duration
	// WriteTimeout bounds each response write (<= 0: none). A peer that
	// stops reading mid-fetch trips it and the session is severed instead
	// of wedging the drain.
	WriteTimeout time.Duration
}

// Server owns the listener, the shared plan cache and the session set.
type Server struct {
	db    *storage.DB
	opts  cbqt.Options
	reg   *obsv.Registry
	cache *plancache.Cache
	// decisions is the CBQT decision store (cbqt.DecisionStore): a plan
	// cache miss of a text whose template was optimized before costs the
	// stored decisions instead of searching. Bounded and swept like cache;
	// nil under Config.NoDecisionStore.
	decisions *cbqt.DecisionStore
	adm       *admission // nil when admission control is off

	idleTimeout  time.Duration
	writeTimeout time.Duration

	mu        sync.Mutex
	listener  net.Listener
	sessions  map[int64]*session
	nextSess  int64
	draining  bool
	done      chan struct{} // closed when the last session ends after drain
	accepting sync.WaitGroup

	sessionsOpened *obsv.Counter
	sessionsClosed *obsv.Counter
	sessionsActive *obsv.Gauge
	queries        *obsv.Counter
	fetches        *obsv.Counter
	rowsSent       *obsv.Counter
	bytesSent      *obsv.Counter
	errorsCtr      *obsv.Counter
	deadlinesCtr   *obsv.Counter
	idleReaped     *obsv.Counter
	writeTimeouts  *obsv.Counter
	pings          *obsv.Counter
}

// New creates a server over the given database.
func New(cfg Config) *Server {
	reg := cfg.Registry
	if reg == nil {
		reg = obsv.NewRegistry()
	}
	opts := cfg.Opts
	opts.Metrics = reg
	s := &Server{
		db:           cfg.DB,
		opts:         opts,
		reg:          reg,
		adm:          newAdmission(cfg, reg),
		cache:        plancache.New(cfg.CacheMaxEntries, reg),
		idleTimeout:  cfg.IdleTimeout,
		writeTimeout: cfg.WriteTimeout,
		sessions:     map[int64]*session{},
		done:         make(chan struct{}),

		sessionsOpened: reg.Counter(MetricSessionsOpened),
		sessionsClosed: reg.Counter(MetricSessionsClosed),
		sessionsActive: reg.Gauge(MetricSessionsActive),
		queries:        reg.Counter(MetricQueries),
		fetches:        reg.Counter(MetricFetches),
		rowsSent:       reg.Counter(MetricRowsSent),
		bytesSent:      reg.Counter(MetricBytesSent),
		errorsCtr:      reg.Counter(MetricErrors),
		deadlinesCtr:   reg.Counter(MetricDeadlineExceeded),
		idleReaped:     reg.Counter(MetricIdleReaped),
		writeTimeouts:  reg.Counter(MetricWriteTimeouts),
		pings:          reg.Counter(MetricPings),
	}
	if !cfg.NoDecisionStore {
		s.decisions = cbqt.NewDecisionStore(cfg.CacheMaxEntries, reg)
	}
	return s
}

// Registry exposes the server's metric registry.
func (s *Server) Registry() *obsv.Registry { return s.reg }

// Serve accepts connections on l until Shutdown (or a fatal listener
// error). Each connection runs as one session on its own goroutine.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return ErrDraining
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil // listener closed by Shutdown
			}
			return err
		}
		sess := s.register(conn)
		if sess == nil {
			conn.Close() // drain began between Accept and register
			continue
		}
		s.accepting.Add(1)
		go func() {
			defer s.accepting.Done()
			sess.run()
		}()
	}
}

func (s *Server) register(conn net.Conn) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil
	}
	s.nextSess++
	sess := newSession(s, s.nextSess, conn)
	s.sessions[sess.id] = sess
	s.sessionsOpened.Inc()
	s.sessionsActive.Set(int64(len(s.sessions)))
	return sess
}

func (s *Server) unregister(id int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sessions[id]; !ok {
		return
	}
	delete(s.sessions, id)
	s.sessionsClosed.Inc()
	s.sessionsActive.Set(int64(len(s.sessions)))
	if s.draining && len(s.sessions) == 0 {
		select {
		case <-s.done:
		default:
			close(s.done)
		}
	}
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown drains the server gracefully: the listener stops accepting, new
// statements are rejected with ErrDraining, but sessions keep their open
// cursors and may fetch them to completion. When every session has closed
// — or ctx expires — remaining connections are severed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		<-s.done
		return nil
	}
	s.draining = true
	l := s.listener
	empty := len(s.sessions) == 0
	if empty {
		close(s.done)
	}
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}

	var err error
	select {
	case <-s.done:
	case <-ctx.Done():
		err = fmt.Errorf("server: shutdown deadline: %d sessions severed", s.severAll())
	}
	s.accepting.Wait()
	return err
}

// severAll force-closes every remaining session connection.
func (s *Server) severAll() int {
	s.mu.Lock()
	var conns []net.Conn
	for _, sess := range s.sessions {
		conns = append(conns, sess.conn)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return len(conns)
}

// sessionOpts refines the base optimizer options with one session's hello.
func (s *Server) sessionOpts(so *SessionOptions) (cbqt.Options, string, error) {
	opts := s.opts
	if so != nil {
		if so.Strategy != "" {
			st, err := cbqt.ParseStrategy(so.Strategy)
			if err != nil {
				return opts, "", err
			}
			opts.Strategy = st
		}
		opts.Budget = cbqt.Budget{
			Timeout:     time.Duration(so.TimeoutMS) * time.Millisecond,
			MaxStates:   so.MaxStates,
			MaxMemBytes: so.MaxMemBytes,
		}
		if so.Check != nil {
			opts.Check = *so.Check
		}
	}
	return opts, strategyFingerprint(opts), nil
}

// strategyFingerprint renders the plan-affecting optimizer options as the
// plan-cache key's strategy dimension: sessions searching differently (or
// under budgets that can degrade the search differently) never share
// plans.
func strategyFingerprint(opts cbqt.Options) string {
	fp := opts.Strategy.String()
	if b := opts.Budget; b.Timeout != 0 || b.MaxStates != 0 || b.MaxMemBytes != 0 {
		fp = fmt.Sprintf("%s|t=%s,s=%d,m=%d", fp, b.Timeout, b.MaxStates, b.MaxMemBytes)
	}
	if opts.Check {
		fp += "|check"
	}
	return fp
}
