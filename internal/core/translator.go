package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// Errors returned by translators.
var (
	// ErrNoSuchPort is returned when delivering to a port the shape does
	// not contain.
	ErrNoSuchPort = errors.New("core: no such port")
	// ErrNotInputPort is returned when delivering to an output port.
	ErrNotInputPort = errors.New("core: not an input port")
	// ErrTypeMismatch is returned when a message's type does not match
	// the target port's type.
	ErrTypeMismatch = errors.New("core: message type does not match port type")
	// ErrTranslatorClosed is returned when using a closed translator.
	ErrTranslatorClosed = errors.New("core: translator closed")
)

// Sink receives messages emitted by translators on their output ports.
// The transport module installs itself as the sink when a translator is
// registered with a runtime.
type Sink interface {
	// Emit forwards a message emitted on src to all connected paths.
	// Ownership of msg.Payload (and msg.Headers) transfers to the sink:
	// the emitter must not mutate either after Emit returns. An emitter
	// that reuses a scratch buffer across emissions must Clone first.
	Emit(src PortRef, msg Message)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(src PortRef, msg Message)

// Emit calls f.
func (f SinkFunc) Emit(src PortRef, msg Message) { f(src, msg) }

// Translator is the device-level bridge for one native device (paper
// Section 3.2): it projects device-specific semantics into the
// intermediary space and acts as a proxy, so connections to the
// translator trigger actual interactions with the native device.
type Translator interface {
	// Profile returns the translator's advertised profile (including its
	// shape).
	Profile() Profile
	// Deliver hands a message to one of the translator's input ports.
	// For proxies this triggers the corresponding native-device action.
	// msg.Payload may alias a transport buffer that is reused once
	// Deliver returns: finish with it first, or Clone msg to keep it.
	Deliver(ctx context.Context, port string, msg Message) error
	// Bind installs the sink that receives output-port emissions. Bind
	// is called once by the runtime before the translator is announced.
	Bind(sink Sink)
	// Close releases native resources (connections to the device).
	Close() error
}

// InputHandler processes a message delivered to one input port.
type InputHandler func(ctx context.Context, msg Message) error

// Base is a reusable Translator core that handles port bookkeeping,
// type checking, sink management, and close semantics. Device-specific
// translators embed a *Base and register input handlers; native events
// are forwarded with Emit.
//
// The zero value is not usable; construct with NewBase.
type Base struct {
	profile Profile

	mu       sync.RWMutex
	sink     Sink
	handlers map[string]InputHandler
	closed   bool
	onClose  []func() error
}

var _ Translator = (*Base)(nil)

// NewBase creates a translator base with the given profile.
func NewBase(profile Profile) (*Base, error) {
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	return &Base{
		profile:  profile,
		handlers: make(map[string]InputHandler),
	}, nil
}

// MustBase is NewBase that panics on error; for tests and fixtures.
func MustBase(profile Profile) *Base {
	b, err := NewBase(profile)
	if err != nil {
		panic(err)
	}
	return b
}

// Profile returns the translator's profile.
func (b *Base) Profile() Profile { return b.profile.Clone() }

// ID returns the translator's identity.
func (b *Base) ID() TranslatorID { return b.profile.ID }

// Handle registers the handler invoked when a message is delivered to
// the named input port. The port must exist in the shape and be an
// input; the error cases surface at Deliver time otherwise.
func (b *Base) Handle(port string, h InputHandler) error {
	p, ok := b.profile.Shape.Port(port)
	if !ok {
		return fmt.Errorf("%w: %q on %s", ErrNoSuchPort, port, b.profile.ID)
	}
	if p.Direction != Input {
		return fmt.Errorf("%w: %q on %s", ErrNotInputPort, port, b.profile.ID)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.handlers[port] = h
	return nil
}

// MustHandle is Handle that panics on error.
func (b *Base) MustHandle(port string, h InputHandler) {
	if err := b.Handle(port, h); err != nil {
		panic(err)
	}
}

// Deliver validates the port and message type, then invokes the
// registered handler.
func (b *Base) Deliver(ctx context.Context, port string, msg Message) error {
	p, ok := b.profile.Shape.Port(port)
	if !ok {
		return fmt.Errorf("%w: %q on %s", ErrNoSuchPort, port, b.profile.ID)
	}
	if p.Direction != Input {
		return fmt.Errorf("%w: %q on %s", ErrNotInputPort, port, b.profile.ID)
	}
	if msg.Type != "" && !msg.Type.Matches(p.Type) && !p.Type.Matches(msg.Type) {
		return fmt.Errorf("%w: %s into %s", ErrTypeMismatch, msg.Type, p)
	}
	b.mu.RLock()
	h := b.handlers[port]
	closed := b.closed
	b.mu.RUnlock()
	if closed {
		return fmt.Errorf("%w: %s", ErrTranslatorClosed, b.profile.ID)
	}
	if h == nil {
		return fmt.Errorf("core: port %q on %s has no handler", port, b.profile.ID)
	}
	return h(ctx, msg)
}

// Bind installs the emission sink.
func (b *Base) Bind(sink Sink) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.sink = sink
}

// Emit sends a message out of the named output port. Emissions before
// Bind or after Close are silently dropped (the device produced an event
// while detached — matching the paper's dynamic mapping semantics).
func (b *Base) Emit(port string, msg Message) {
	p, ok := b.profile.Shape.Port(port)
	if !ok || p.Direction != Output {
		return
	}
	if msg.Type == "" {
		msg.Type = p.Type
	}
	b.mu.RLock()
	sink := b.sink
	closed := b.closed
	b.mu.RUnlock()
	if sink == nil || closed {
		return
	}
	sink.Emit(PortRef{Translator: b.profile.ID, Port: port}, msg)
}

// OnClose registers a cleanup function run by Close (native connection
// teardown). Functions run in reverse registration order.
func (b *Base) OnClose(fn func() error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.onClose = append(b.onClose, fn)
}

// Close marks the translator closed and runs cleanup functions.
func (b *Base) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	fns := b.onClose
	b.onClose = nil
	b.mu.Unlock()
	var firstErr error
	for i := len(fns) - 1; i >= 0; i-- {
		if err := fns[i](); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Closed reports whether Close has been called.
func (b *Base) Closed() bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.closed
}
