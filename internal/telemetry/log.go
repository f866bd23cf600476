package telemetry

import (
	"context"
	"log/slog"
	"os"
	"sync"
)

// Structured logging: every component gets a slog.Logger tagged with its
// name, filtered by a per-component level. Output is text on stderr.

type logState struct {
	mu      sync.RWMutex
	handler slog.Handler
	levels  map[string]*slog.LevelVar
	def     slog.LevelVar
}

var logs = func() *logState {
	s := &logState{levels: make(map[string]*slog.LevelVar)}
	s.def.Set(slog.LevelInfo)
	s.handler = slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelDebug})
	return s
}()

// levelVar returns the named component's level var, creating it at the
// default level on first use.
func (s *logState) levelVar(component string) *slog.LevelVar {
	s.mu.RLock()
	lv := s.levels[component]
	s.mu.RUnlock()
	if lv != nil {
		return lv
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if lv = s.levels[component]; lv == nil {
		lv = &slog.LevelVar{}
		lv.Set(s.def.Level())
		s.levels[component] = lv
	}
	return lv
}

// SetDefaultLogLevel sets the level new components start at and updates
// every existing component.
func SetDefaultLogLevel(level slog.Level) {
	logs.mu.Lock()
	defer logs.mu.Unlock()
	logs.def.Set(level)
	for _, lv := range logs.levels {
		lv.Set(level)
	}
}

// componentHandler filters by the component's level var and forwards to
// the shared backend handler.
type componentHandler struct {
	component string
	level     *slog.LevelVar
	attrs     []slog.Attr
	group     string
}

func (h *componentHandler) Enabled(_ context.Context, l slog.Level) bool {
	return l >= h.level.Level()
}

func (h *componentHandler) backend() slog.Handler {
	logs.mu.RLock()
	defer logs.mu.RUnlock()
	return h.handler(logs.handler)
}

func (h *componentHandler) handler(base slog.Handler) slog.Handler {
	out := base.WithAttrs([]slog.Attr{slog.String("component", h.component)})
	if len(h.attrs) > 0 {
		out = out.WithAttrs(h.attrs)
	}
	if h.group != "" {
		out = out.WithGroup(h.group)
	}
	return out
}

func (h *componentHandler) Handle(ctx context.Context, r slog.Record) error {
	return h.backend().Handle(ctx, r)
}

func (h *componentHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	c := *h
	c.attrs = append(append([]slog.Attr(nil), h.attrs...), attrs...)
	return &c
}

func (h *componentHandler) WithGroup(name string) slog.Handler {
	c := *h
	c.group = name
	return &c
}

// Logger returns the named component's structured logger. Records carry
// a component attribute and honour the component's runtime level.
func Logger(component string) *slog.Logger {
	return slog.New(&componentHandler{
		component: component,
		level:     logs.levelVar(component),
	})
}
