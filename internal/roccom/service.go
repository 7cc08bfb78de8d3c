package roccom

import "fmt"

// IOService is the paper's uniform high-level parallel I/O interface: three
// collective, file-format-independent operations hiding open/close/layout
// underneath. Rocpanda and Rochdf both provide it; the application picks
// one at startup by loading the corresponding module and never changes its
// call sites.
type IOService interface {
	// WriteAttribute collectively writes the selected attribute ("all",
	// "mesh", or a name) of every pane of the window into the snapshot
	// identified by file (a base name; the implementation decides file
	// layout). It returns when the caller's buffers are reusable — with
	// buffering implementations the data may still be on its way to
	// disk.
	WriteAttribute(file string, w *Window, attr string, time float64, step int) error
	// ReadAttribute collectively reads the panes this process is
	// responsible for from the snapshot identified by file, restoring
	// them into the window (restart).
	ReadAttribute(file string, w *Window, attr string) error
	// Sync blocks until all previously issued output has reached the
	// filesystem (used for performance analysis, debugging, and
	// end-of-run draining).
	Sync() error
}

// Function names every I/O service module must register (under
// "<module>.<name>").
const (
	FuncWriteAttribute = "write_attribute"
	FuncReadAttribute  = "read_attribute"
	FuncSync           = "sync"
)

// RegisterIOService registers svc's three operations as callable functions
// under the module window name. I/O modules call this from Load.
func RegisterIOService(rc *Roccom, module string, svc IOService) error {
	err := rc.RegisterFunction(module+"."+FuncWriteAttribute, func(args ...interface{}) (interface{}, error) {
		file, w, attr, tm, step, err := ioArgs(args, true)
		if err != nil {
			return nil, err
		}
		return nil, svc.WriteAttribute(file, w, attr, tm, step)
	})
	if err != nil {
		return err
	}
	err = rc.RegisterFunction(module+"."+FuncReadAttribute, func(args ...interface{}) (interface{}, error) {
		file, w, attr, _, _, err := ioArgs(args, false)
		if err != nil {
			return nil, err
		}
		return nil, svc.ReadAttribute(file, w, attr)
	})
	if err != nil {
		return err
	}
	return rc.RegisterFunction(module+"."+FuncSync, func(args ...interface{}) (interface{}, error) {
		return nil, svc.Sync()
	})
}

// IOModule returns the Module every I/O service loads through: Load creates
// the module's window and registers svc's three operations under it, Unload
// stops the service (unload: its Close or Shutdown) and deletes the window.
func IOModule(svc IOService, unload func() error) Module { return ioModule{svc, unload} }

type ioModule struct {
	svc    IOService
	unload func() error
}

func (m ioModule) Load(rc *Roccom, name string) error {
	if _, err := rc.NewWindow(name); err != nil {
		return err
	}
	return RegisterIOService(rc, name, m.svc)
}

func (m ioModule) Unload(rc *Roccom, name string) error {
	if err := m.unload(); err != nil {
		return err
	}
	return rc.DeleteWindow(name)
}

func ioArgs(args []interface{}, withTime bool) (file string, w *Window, attr string, tm float64, step int, err error) {
	want := 3
	if withTime {
		want = 5
	}
	if len(args) != want {
		return "", nil, "", 0, 0, fmt.Errorf("roccom: I/O call wants %d args, got %d", want, len(args))
	}
	var ok bool
	if file, ok = args[0].(string); !ok {
		return "", nil, "", 0, 0, fmt.Errorf("roccom: I/O arg 0 must be file name string")
	}
	if w, ok = args[1].(*Window); !ok {
		return "", nil, "", 0, 0, fmt.Errorf("roccom: I/O arg 1 must be *Window")
	}
	if attr, ok = args[2].(string); !ok {
		return "", nil, "", 0, 0, fmt.Errorf("roccom: I/O arg 2 must be attribute string")
	}
	if withTime {
		if tm, ok = args[3].(float64); !ok {
			return "", nil, "", 0, 0, fmt.Errorf("roccom: I/O arg 3 must be float64 time")
		}
		if step, ok = args[4].(int); !ok {
			return "", nil, "", 0, 0, fmt.Errorf("roccom: I/O arg 4 must be int step")
		}
	}
	return file, w, attr, tm, step, nil
}

// LoadedIO returns an IOService that dispatches through CallFunction to
// whichever I/O module was loaded under the given name — the application-
// side half of the paper's runtime I/O selection.
func LoadedIO(rc *Roccom, module string) (IOService, error) {
	for _, fn := range []string{FuncWriteAttribute, FuncReadAttribute, FuncSync} {
		if !rc.HasFunction(module + "." + fn) {
			return nil, fmt.Errorf("roccom: module %q does not provide %s", module, fn)
		}
	}
	return &ioDispatch{rc: rc, module: module}, nil
}

type ioDispatch struct {
	rc     *Roccom
	module string
}

func (d *ioDispatch) WriteAttribute(file string, w *Window, attr string, tm float64, step int) error {
	_, err := d.rc.CallFunction(d.module+"."+FuncWriteAttribute, file, w, attr, tm, step)
	return err
}

func (d *ioDispatch) ReadAttribute(file string, w *Window, attr string) error {
	_, err := d.rc.CallFunction(d.module+"."+FuncReadAttribute, file, w, attr)
	return err
}

func (d *ioDispatch) Sync() error {
	_, err := d.rc.CallFunction(d.module + "." + FuncSync)
	return err
}
