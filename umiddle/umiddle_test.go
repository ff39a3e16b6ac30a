package umiddle

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/platform/bluetooth"
	"repro/internal/platform/mediabroker"
	"repro/internal/platform/motes"
	"repro/internal/platform/rmi"
	"repro/internal/platform/upnp"
	"repro/internal/platform/webservice"
)

func newTestWorld(t *testing.T) (*Network, *Runtime) {
	t.Helper()
	net := NewEmulatedNetwork()
	t.Cleanup(func() { net.Close() })
	rt, err := NewRuntime(RuntimeConfig{
		Node:             "h1",
		Network:          net,
		AnnounceInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	t.Cleanup(func() { rt.Close() })
	return net, rt
}

func TestNewRuntimeRequiresNetwork(t *testing.T) {
	if _, err := NewRuntime(RuntimeConfig{Node: "x"}); err == nil {
		t.Fatal("nil network accepted")
	}
}

func TestServiceLifecycle(t *testing.T) {
	_, rt := newTestWorld(t)
	shape, err := NewShape(
		Port{Name: "out", Kind: Digital, Direction: Output, Type: "text/plain"},
		Port{Name: "in", Kind: Digital, Direction: Input, Type: "text/plain"},
	)
	if err != nil {
		t.Fatalf("NewShape: %v", err)
	}
	svc, err := rt.NewService("My Service!", shape, map[string]string{"room": "study"})
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	p := svc.Profile()
	if p.Name != "My Service!" || p.Attr("room") != "study" {
		t.Fatalf("profile = %v", p)
	}
	if !strings.Contains(string(svc.ID()), "my-service") {
		t.Fatalf("ID = %q, want slugged name", svc.ID())
	}
	if got := rt.Lookup(Query{NameContains: "my service"}); len(got) != 1 {
		t.Fatalf("Lookup = %v", got)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := rt.Lookup(Query{NameContains: "my service"}); len(got) != 0 {
		t.Fatalf("Lookup after close = %v", got)
	}
}

func TestServiceMessaging(t *testing.T) {
	_, rt := newTestWorld(t)
	outShape, _ := NewShape(Port{Name: "out", Kind: Digital, Direction: Output, Type: "text/plain"})
	inShape, _ := NewShape(Port{Name: "in", Kind: Digital, Direction: Input, Type: "text/plain"})
	src, err := rt.NewService("src", outShape, nil)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	dst, err := rt.NewService("dst", inShape, nil)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	got := make(chan string, 4)
	if err := dst.HandleInput("in", func(msg Message) error {
		got <- string(msg.Payload)
		return nil
	}); err != nil {
		t.Fatalf("HandleInput: %v", err)
	}

	id, err := rt.Connect(src.Port("out"), dst.Port("in"))
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	src.Emit("out", NewMessage("text/plain", []byte("hi")))
	select {
	case v := <-got:
		if v != "hi" {
			t.Fatalf("delivered %q", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("nothing delivered")
	}
	// The path worker counts a delivery after the handler returns, so
	// the counter can trail the handler seeing the message.
	deadline := time.Now().Add(2 * time.Second)
	stats, ok := rt.PathStats(id)
	for ok && stats.Delivered == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		stats, ok = rt.PathStats(id)
	}
	if !ok || stats.Delivered != 1 {
		t.Fatalf("stats = %+v, %v", stats, ok)
	}
	if err := rt.Disconnect(id); err != nil {
		t.Fatalf("Disconnect: %v", err)
	}
}

func TestFacadeUPnPFlow(t *testing.T) {
	net, rt := newTestWorld(t)
	if err := rt.AddUPnPMapper(UPnPMapperConfig{SearchInterval: 100 * time.Millisecond}); err != nil {
		t.Fatalf("AddUPnPMapper: %v", err)
	}
	light := upnp.NewBinaryLight(net.MustAddHost("light-dev"), "l1", "Lamp", upnp.DeviceOptions{})
	if err := light.Publish(); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	defer light.Unpublish()

	profiles, err := rt.WaitFor(Query{Platform: "upnp"}, 1, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if profiles[0].DeviceType != upnp.DeviceTypeBinaryLight {
		t.Fatalf("profile = %v", profiles[0])
	}

	// WaitFor timeout path.
	if _, err := rt.WaitFor(Query{Platform: "zigbee"}, 1, 100*time.Millisecond); err == nil {
		t.Fatal("WaitFor for absent platform succeeded")
	}
}

func TestOnMappedReplaysState(t *testing.T) {
	_, rt := newTestWorld(t)
	shape, _ := NewShape(Port{Name: "out", Kind: Digital, Direction: Output, Type: "text/plain"})
	if _, err := rt.NewService("pre", shape, nil); err != nil {
		t.Fatalf("NewService: %v", err)
	}
	got := make(chan Profile, 4)
	rt.OnMapped(func(p Profile) { got <- p })
	select {
	case p := <-got:
		if p.Name != "pre" {
			t.Fatalf("replayed %v", p)
		}
	case <-time.After(time.Second):
		t.Fatal("no replay")
	}
}

func TestLoadUSDLExtendsVocabulary(t *testing.T) {
	_, rt := newTestWorld(t)
	before := len(rt.USDLServices())
	err := rt.LoadUSDL(`<?xml version="1.0"?>
<usdl version="1.0">
  <service name="Custom Thing" platform="upnp">
    <match deviceType="urn:example:device:Thing:1"/>
    <port name="poke" kind="digital" direction="input" type="control/poke">
      <bind action="Poke"/>
    </port>
  </service>
</usdl>`)
	if err != nil {
		t.Fatalf("LoadUSDL: %v", err)
	}
	if len(rt.USDLServices()) != before+1 {
		t.Fatal("vocabulary not extended")
	}
	if err := rt.LoadUSDL("<garbage"); err == nil {
		t.Fatal("garbage USDL accepted")
	}
}

func TestSlug(t *testing.T) {
	tests := []struct{ in, want string }{
		{"My Service!", "my-service"},
		{"ALL CAPS 42", "all-caps-42"},
		{"---", "---"},
		{"???", "svc"},
	}
	for _, tt := range tests {
		if got := slug(tt.in); got != tt.want {
			t.Errorf("slug(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

// TestAllMapperKinds attaches every platform mapper through the facade
// and verifies each bridges its device — a miniature of cmd/umiddled.
func TestAllMapperKinds(t *testing.T) {
	net, rt := newTestWorld(t)
	fast := 100 * time.Millisecond

	if err := rt.AddUPnPMapper(UPnPMapperConfig{SearchInterval: fast}); err != nil {
		t.Fatalf("upnp: %v", err)
	}
	if err := rt.AddBluetoothMapper(BluetoothMapperConfig{
		InquiryInterval: fast, InquiryWindow: 60 * time.Millisecond,
	}); err != nil {
		t.Fatalf("bluetooth: %v", err)
	}
	if err := rt.AddMotesMapper(MotesMapperConfig{}); err != nil {
		t.Fatalf("motes: %v", err)
	}

	// RMI world.
	rmiHost := net.MustAddHost("rmi-dev")
	reg, err := rmi.NewRegistry(rmiHost)
	if err != nil {
		t.Fatalf("rmi registry: %v", err)
	}
	defer reg.Close()
	srv, err := rmi.NewServer(rmiHost, 0)
	if err != nil {
		t.Fatalf("rmi server: %v", err)
	}
	defer srv.Close()
	rc := rmi.NewRegistryClient(rmiHost, "rmi-dev")
	if err := rc.Bind(context.Background(), "echo", rmi.ExportEcho(srv)); err != nil {
		t.Fatalf("rmi bind: %v", err)
	}
	if err := rt.AddRMIMapper(RMIMapperConfig{RegistryHost: "rmi-dev", PollInterval: fast}); err != nil {
		t.Fatalf("rmi mapper: %v", err)
	}

	// MediaBroker world.
	broker, err := mediabroker.NewBroker(net.MustAddHost("mb-dev"))
	if err != nil {
		t.Fatalf("broker: %v", err)
	}
	defer broker.Close()
	prod, err := mediabroker.NewProducer(context.Background(), net.MustAddHost("mb-prod"), "mb-dev", "feed", "application/octet-stream")
	if err != nil {
		t.Fatalf("producer: %v", err)
	}
	defer prod.Close()
	if err := rt.AddMediaBrokerMapper(MediaBrokerMapperConfig{BrokerHost: "mb-dev", PollInterval: fast}); err != nil {
		t.Fatalf("mb mapper: %v", err)
	}

	// Web service world.
	ws, err := webservice.NewHost(net.MustAddHost("ws-dev"), 0)
	if err != nil {
		t.Fatalf("ws host: %v", err)
	}
	defer ws.Close()
	ws.Register("greeter", "xml-rpc", func(string, map[string]string) (map[string]string, error) {
		return map[string]string{"ok": "1"}, nil
	})
	if err := rt.AddWebServiceMapper(WebServiceMapperConfig{BaseURLs: []string{ws.URL()}, PollInterval: fast}); err != nil {
		t.Fatalf("ws mapper: %v", err)
	}

	// Native devices for the discovery-based platforms.
	light := upnp.NewBinaryLight(net.MustAddHost("light-dev"), "l1", "Lamp", upnp.DeviceOptions{})
	if err := light.Publish(); err != nil {
		t.Fatalf("light: %v", err)
	}
	defer light.Unpublish()
	camAdapter, err := bluetooth.NewAdapter(net.MustAddHost("cam-dev"), "cam-dev", bluetooth.AdapterOptions{
		ScanInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("adapter: %v", err)
	}
	defer camAdapter.Close()
	cam, err := bluetooth.NewBIPCamera(camAdapter, "Cam")
	if err != nil {
		t.Fatalf("camera: %v", err)
	}
	defer cam.Close()
	mote, err := motes.StartMote(net.MustAddHost("mote-1"), "h1", 1, motes.MoteOptions{
		Interval: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("mote: %v", err)
	}
	defer mote.Stop()

	for _, platform := range []string{"upnp", "bluetooth", "motes", "rmi", "mediabroker", "webservice"} {
		if _, err := rt.WaitFor(Query{Platform: platform}, 1, 15*time.Second); err != nil {
			t.Errorf("platform %s never bridged: %v", platform, err)
		}
	}
}

func TestFacadeExportUPnP(t *testing.T) {
	net, rt := newTestWorld(t)
	shape, _ := NewShape(
		Port{Name: "in", Kind: Digital, Direction: Input, Type: "text/plain"},
	)
	svc, err := rt.NewService("Notepad", shape, nil)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	got := make(chan string, 4)
	svc.HandleInput("in", func(msg Message) error { //nolint:errcheck
		got <- string(msg.Payload)
		return nil
	})

	exp, err := rt.ExportUPnP(svc.ID(), "export-host", 0)
	if err != nil {
		t.Fatalf("ExportUPnP: %v", err)
	}
	defer exp.Close()

	// A stock control point drives the native uMiddle service.
	cp := upnp.NewControlPoint(net.MustAddHost("native-cp"), 0)
	if err := cp.Start(); err != nil {
		t.Fatalf("cp.Start: %v", err)
	}
	defer cp.Close()
	desc, err := cp.FetchDescription(context.Background(), exp.Location())
	if err != nil {
		t.Fatalf("FetchDescription: %v", err)
	}
	svcInfo := desc.Device.Services[0]
	if _, err := cp.Invoke(context.Background(), exp.Location(), svcInfo.ControlURL, upnp.ActionCall{
		ServiceType: svcInfo.ServiceType,
		Action:      "Send-in",
		Args:        map[string]string{"Payload": "note"},
	}); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	select {
	case v := <-got:
		if v != "note" {
			t.Fatalf("delivered %q", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("nothing crossed the projection")
	}
}

func TestUnregisterTearsDownLivePaths(t *testing.T) {
	// Regression: Unregister on a translator with live paths must tear
	// down paths rooted at it and fail static paths targeting it, not
	// leave corpses delivering into the void.
	_, rt := newTestWorld(t)
	outShape, _ := NewShape(Port{Name: "out", Kind: Digital, Direction: Output, Type: "text/plain"})
	inShape, _ := NewShape(Port{Name: "in", Kind: Digital, Direction: Input, Type: "text/plain"})
	src, err := rt.NewService("src", outShape, nil)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	dst, err := rt.NewService("dst", inShape, nil)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	srcPath, err := rt.Connect(src.Port("out"), dst.Port("in"))
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	dstPath, err := rt.Connect(src.Port("out"), dst.Port("in"))
	if err != nil {
		t.Fatalf("Connect second path: %v", err)
	}

	// Unregistering the source deterministically removes its paths.
	if err := rt.Unregister(src.ID()); err != nil {
		t.Fatalf("Unregister: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, ok1 := rt.PathStats(srcPath)
		_, ok2 := rt.PathStats(dstPath)
		if !ok1 && !ok2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("paths outlive their unregistered source: %v %v", ok1, ok2)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Unregistering a static path's destination degrades the path.
	src2, err := rt.NewService("src2", outShape, nil)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	id, err := rt.Connect(src2.Port("out"), dst.Port("in"))
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	if err := rt.Unregister(dst.ID()); err != nil {
		t.Fatalf("Unregister dst: %v", err)
	}
	deadline = time.Now().Add(2 * time.Second)
	for {
		var state PathState
		for _, info := range rt.Internal().Transport().Paths() {
			if info.ID == id {
				state = info.State
			}
		}
		if state == PathDegraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("static path state = %q after destination unregistered, want degraded", state)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestFacadeHealthSnapshot(t *testing.T) {
	_, rt := newTestWorld(t)
	if err := rt.AddUPnPMapper(UPnPMapperConfig{SearchInterval: 100 * time.Millisecond}); err != nil {
		t.Fatalf("AddUPnPMapper: %v", err)
	}
	h := rt.Health()
	if h.Node != "h1" {
		t.Fatalf("Health.Node = %q", h.Node)
	}
	if len(h.Mappers) != 1 || h.Mappers[0].Platform != "upnp" || h.Mappers[0].State != "running" {
		t.Fatalf("Health.Mappers = %+v", h.Mappers)
	}
}
