package redis

import (
	"bytes"
	"fmt"
	"strconv"

	"aurora/internal/kernel"
	"aurora/internal/vm"
)

// ProgramName registers the server driver for restore.
const ProgramName = "mini-redis"

// Server is the mini-Redis driver program: it polls the listener for
// new connections and the connections for commands, executing them
// against the in-memory table. All durable state lives in simulated
// memory; the driver snapshot carries only descriptor numbers and the
// table base, which is why the Aurora port needs no persistence code.
type Server struct {
	Base     vm.Addr
	ListenFD int
	conns    []int
	partial  map[int][]byte
	persist  Persistence
}

// NewServer builds the driver. Call Serve-style stepping through the
// kernel scheduler.
func NewServer(base vm.Addr, listenFD int, persist Persistence) *Server {
	if persist == nil {
		persist = NoPersistence{}
	}
	return &Server{Base: base, ListenFD: listenFD, partial: make(map[int][]byte), persist: persist}
}

// ProgName implements kernel.Program.
func (s *Server) ProgName() string { return ProgramName }

// Snapshot implements kernel.Program: descriptor numbers, table base
// and buffered partial input — the driver-local control state.
func (s *Server) Snapshot() []byte {
	e := kernel.NewEncoder()
	e.U64(uint64(s.Base))
	e.I64(int64(s.ListenFD))
	e.U64(uint64(len(s.conns)))
	for _, fd := range s.conns {
		e.I64(int64(fd))
		e.Bytes2(s.partial[fd])
	}
	e.Str(s.persist.Name())
	return e.Bytes()
}

// restoreServer reconstructs the driver from its snapshot. The
// persistence engine is resolved by name through the engine registry.
func restoreServer(k *kernel.Kernel, p *kernel.Process, state []byte) (*Server, error) {
	d := kernel.NewDecoder(state)
	s := &Server{partial: make(map[int][]byte)}
	s.Base = vm.Addr(d.U64())
	s.ListenFD = int(d.I64())
	n := d.U64()
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		fd := int(d.I64())
		s.conns = append(s.conns, fd)
		if buf := d.Bytes2(); len(buf) > 0 {
			s.partial[fd] = buf
		}
	}
	name := d.Str()
	if err := d.Finish("mini-redis"); err != nil {
		return nil, err
	}
	s.persist = lookupEngine(name)
	return s, nil
}

func init() {
	kernel.RegisterProgram(ProgramName, func(k *kernel.Kernel, p *kernel.Process, state []byte) (kernel.Program, error) {
		return restoreServer(k, p, state)
	})
}

// Step implements kernel.Program: accept new connections, then drain
// one round of commands from each connection.
func (s *Server) Step(k *kernel.Kernel, p *kernel.Process, t *kernel.Thread) error {
	for {
		fd, err := k.Accept(p, s.ListenFD)
		if err == kernel.ErrWouldBlock {
			break
		}
		if err != nil {
			return err
		}
		s.conns = append(s.conns, fd)
	}
	buf := make([]byte, 4096)
	for _, fd := range s.conns {
		n, err := k.Read(p, fd, buf)
		if err == kernel.ErrWouldBlock || kernel.IsEOF(err) {
			continue
		}
		if err != nil {
			continue // connection error: drop silently like redis
		}
		data := append(s.partial[fd], buf[:n]...)
		for {
			nl := bytes.IndexByte(data, '\n')
			if nl < 0 {
				break
			}
			line := data[:nl]
			data = data[nl+1:]
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			reply, err := s.execute(k, p, line)
			if err != nil {
				return err
			}
			_, _ = k.Write(p, fd, reply) // a reply the peer cannot take is dropped
		}
		if len(data) > 0 {
			s.partial[fd] = append([]byte(nil), data...)
		} else {
			delete(s.partial, fd)
		}
	}
	return nil
}

// execute runs one command line against the table.
func (s *Server) execute(k *kernel.Kernel, p *kernel.Process, line []byte) ([]byte, error) {
	st := &Store{P: p, Base: s.Base}
	fields := bytes.SplitN(line, []byte(" "), 3)
	cmd := string(bytes.ToUpper(fields[0]))
	switch cmd {
	case "PING":
		return []byte("+PONG\n"), nil
	case "SET":
		if len(fields) != 3 {
			return []byte("-ERR wrong number of arguments\n"), nil
		}
		if err := st.Set(fields[1], fields[2]); err != nil {
			return []byte("-ERR " + err.Error() + "\n"), nil
		}
		if err := s.persist.OnMutation(k, p, line); err != nil {
			return nil, err
		}
		return []byte("+OK\n"), nil
	case "GET":
		if len(fields) != 2 {
			return []byte("-ERR wrong number of arguments\n"), nil
		}
		val, err := st.Get(fields[1])
		if err == ErrNotFound {
			return []byte("$-1\n"), nil
		}
		if err != nil {
			return []byte("-ERR " + err.Error() + "\n"), nil
		}
		return append([]byte("$"+strconv.Itoa(len(val))+"\n"), append(val, '\n')...), nil
	case "DEL":
		if len(fields) != 2 {
			return []byte("-ERR wrong number of arguments\n"), nil
		}
		err := st.Del(fields[1])
		if perr := s.persist.OnMutation(k, p, line); perr != nil {
			return nil, perr
		}
		if err == ErrNotFound {
			return []byte(":0\n"), nil
		}
		return []byte(":1\n"), nil
	case "DBSIZE":
		n, err := st.Count()
		if err != nil {
			return nil, err
		}
		return []byte(fmt.Sprintf(":%d\n", n)), nil
	case "BGSAVE":
		if err := s.persist.Snapshot(k, p); err != nil {
			return []byte("-ERR " + err.Error() + "\n"), nil
		}
		return []byte("+Background saving started\n"), nil
	default:
		return []byte("-ERR unknown command '" + string(fields[0]) + "'\n"), nil
	}
}

// Client is a test/bench helper speaking the wire protocol from
// another simulated process.
type Client struct {
	K  *kernel.Kernel
	P  *kernel.Process
	FD int
	// ServerStep drives the server between request and response; in a
	// scheduler-driven setup it can just run the kernel.
	ServerStep func()
	buf        []byte
}

// Dial connects a client process to the server's socket path.
func Dial(k *kernel.Kernel, p *kernel.Process, path string, serverStep func()) (*Client, error) {
	fd, err := k.Connect(p, path)
	if err != nil {
		return nil, err
	}
	return &Client{K: k, P: p, FD: fd, ServerStep: serverStep}, nil
}

// Do sends one command line and returns one reply line.
func (c *Client) Do(line string) (string, error) {
	if _, err := c.K.Write(c.P, c.FD, []byte(line+"\n")); err != nil {
		return "", err
	}
	return c.readLine()
}

// readLine pulls one newline-terminated reply, stepping the server as
// needed.
func (c *Client) readLine() (string, error) {
	buf := make([]byte, 4096)
	for tries := 0; tries < 1000; tries++ {
		if nl := bytes.IndexByte(c.buf, '\n'); nl >= 0 {
			line := string(c.buf[:nl])
			c.buf = c.buf[nl+1:]
			return line, nil
		}
		n, err := c.K.Read(c.P, c.FD, buf)
		if err == kernel.ErrWouldBlock {
			c.ServerStep()
			continue
		}
		if err != nil {
			return "", err
		}
		c.buf = append(c.buf, buf[:n]...)
	}
	return "", kernel.ErrWouldBlock
}

// DoValue issues GET-style commands that return a $<len> header plus
// a payload line. It reports (value, found).
func (c *Client) DoValue(line string) (string, bool, error) {
	hdr, err := c.Do(line)
	if err != nil {
		return "", false, err
	}
	if hdr == "$-1" {
		return "", false, nil
	}
	if len(hdr) < 2 || hdr[0] != '$' {
		return "", false, fmt.Errorf("redis: bad value header %q", hdr)
	}
	val, err := c.readLine()
	if err != nil {
		return "", false, err
	}
	return val, true, nil
}
