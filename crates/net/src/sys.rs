//! The four things the UDP transport needs that `std::net` cannot do,
//! as hand-declared `extern "C"` calls into the libc `std` already
//! links: binding a datagram socket with `SO_REUSEADDR` set *before*
//! `bind` (and `IP_MULTICAST_ALL` cleared), a `recvfrom` that does not
//! block however the socket is configured, waiting on several
//! descriptors with a nanosecond timeout (`ppoll`), and an `eventfd`
//! to wake that wait from another thread.
//!
//! This is the only module in the workspace allowed `unsafe`, and the
//! functions it exports are safe: every descriptor handed to the kernel
//! is borrowed from a live `std` owner, every pointer from a live
//! slice or local. Everything else about a socket — joins, TTLs, sends,
//! closing — stays with [`std::net::UdpSocket`].
//!
//! Linux only. The constants below are the asm-generic values, so the
//! architectures that number them differently (MIPS, SPARC) get the
//! same stub as other systems: every constructor fails with
//! [`io::ErrorKind::Unsupported`], which is what `UdpTransport::bind`
//! then returns.

#![deny(clippy::undocumented_unsafe_blocks)]

#[cfg(all(
    target_os = "linux",
    not(any(
        target_arch = "mips",
        target_arch = "mips64",
        target_arch = "sparc",
        target_arch = "sparc64"
    ))
))]
mod imp {
    use std::ffi::{c_int, c_long, c_uint, c_ulong, c_void};
    use std::fs::File;
    use std::io::{self, Read, Write};
    use std::net::{Ipv4Addr, SocketAddrV4, UdpSocket};
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
    use std::time::Duration;

    const AF_INET: c_int = 2;
    const SOCK_DGRAM: c_int = 2;
    const SOCK_CLOEXEC: c_int = 0o2_000_000;
    const SOL_SOCKET: c_int = 1;
    const SO_REUSEADDR: c_int = 2;
    const IPPROTO_IP: c_int = 0;
    const IP_MULTICAST_ALL: c_int = 49;
    const MSG_DONTWAIT: c_int = 0x40;
    const POLLIN: i16 = 0x001;
    const EFD_CLOEXEC: c_int = 0o2_000_000;
    const EFD_NONBLOCK: c_int = 0o4_000;

    /// `struct sockaddr_in`; port and address in network byte order.
    #[repr(C)]
    struct SockaddrIn {
        family: u16,
        port: u16,
        addr: u32,
        zero: [u8; 8],
    }

    /// `struct pollfd`.
    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: i16,
        revents: i16,
    }

    /// `struct timespec` as the `ppoll` symbol takes it.
    #[repr(C)]
    struct Timespec {
        sec: c_long,
        nsec: c_long,
    }

    const SOCKADDR_IN_LEN: u32 = std::mem::size_of::<SockaddrIn>() as u32;

    extern "C" {
        fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: u32,
        ) -> c_int;
        fn bind(fd: c_int, addr: *const SockaddrIn, len: u32) -> c_int;
        fn recvfrom(
            fd: c_int,
            buf: *mut c_void,
            len: usize,
            flags: c_int,
            addr: *mut SockaddrIn,
            addr_len: *mut u32,
        ) -> isize;
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
        fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    }

    /// Takes ownership of a descriptor a libc call just returned.
    fn owned(fd: c_int) -> io::Result<OwnedFd> {
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` is non-negative, so the call that produced it
        // succeeded and returned a fresh descriptor nothing else owns.
        Ok(unsafe { OwnedFd::from_raw_fd(fd) })
    }

    fn set_int_opt(fd: &OwnedFd, level: c_int, name: c_int, value: c_int) -> io::Result<()> {
        // SAFETY: `fd` is open for the length of the call, and the value
        // pointer and length describe the live local `value`.
        let rc = unsafe {
            setsockopt(
                fd.as_raw_fd(),
                level,
                name,
                std::ptr::from_ref(&value).cast(),
                std::mem::size_of::<c_int>() as u32,
            )
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// A datagram socket bound to `0.0.0.0:port` that shares the port
    /// with every other socket bound the same way, in this process or
    /// another, and receives only the multicast groups joined on *it*
    /// (Linux otherwise hands an `INADDR_ANY` socket every group any
    /// socket on the host has joined).
    pub(crate) fn bind_reuse(port: u16) -> io::Result<UdpSocket> {
        // SAFETY: `socket` takes no pointers.
        let fd = owned(unsafe { socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0) })?;
        set_int_opt(&fd, SOL_SOCKET, SO_REUSEADDR, 1)?;
        set_int_opt(&fd, IPPROTO_IP, IP_MULTICAST_ALL, 0)?;
        let addr = SockaddrIn {
            family: AF_INET as u16,
            port: port.to_be(),
            addr: u32::from(Ipv4Addr::UNSPECIFIED).to_be(),
            zero: [0; 8],
        };
        // SAFETY: `fd` is open, and the address pointer and length
        // describe the live local `addr`.
        if unsafe { bind(fd.as_raw_fd(), &addr, SOCKADDR_IN_LEN) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(UdpSocket::from(fd))
    }

    /// Receives one datagram from an IPv4 socket without blocking,
    /// whatever the socket's own blocking mode (it stays blocking for
    /// sends). `Ok(None)` when nothing is queued; the byte count is
    /// capped at `buf.len()`, the rest of a longer datagram is lost.
    pub(crate) fn try_recv_from(
        sock: &UdpSocket,
        buf: &mut [u8],
    ) -> io::Result<Option<(usize, SocketAddrV4)>> {
        let mut addr = SockaddrIn {
            family: 0,
            port: 0,
            addr: 0,
            zero: [0; 8],
        };
        let mut addr_len = SOCKADDR_IN_LEN;
        // SAFETY: `sock` is open for the length of the call; the buffer
        // pointer and length describe the live exclusive slice `buf`;
        // the kernel writes at most `addr_len` bytes into `addr`, whose
        // size that is.
        let n = unsafe {
            recvfrom(
                sock.as_raw_fd(),
                buf.as_mut_ptr().cast(),
                buf.len(),
                MSG_DONTWAIT,
                &mut addr,
                &mut addr_len,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            return match err.kind() {
                io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted => Ok(None),
                _ => Err(err),
            };
        }
        let ip = Ipv4Addr::from(u32::from_be(addr.addr));
        Ok(Some((
            n as usize,
            SocketAddrV4::new(ip, u16::from_be(addr.port)),
        )))
    }

    /// A reusable set of descriptors to wait on for readability.
    pub(crate) struct PollSet {
        fds: Vec<PollFd>,
    }

    impl PollSet {
        pub(crate) fn new() -> Self {
            PollSet { fds: Vec::new() }
        }

        /// Adds a descriptor; its slot is the number of pushes before
        /// it. Only the number is kept: a descriptor closed while still
        /// in the set makes [`wait`](Self::wait) report its slot ready,
        /// nothing worse.
        pub(crate) fn push(&mut self, fd: &impl AsRawFd) {
            self.fds.push(PollFd {
                fd: fd.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
        }

        /// Blocks until a descriptor has something to read (or an error
        /// to report) or `timeout` runs out; [`ready`](Self::ready)
        /// then says which. A signal ends the wait early with nothing
        /// ready, so callers loop on their own deadline. The timeout
        /// keeps its nanoseconds — a 2 ms flush delay is not rounded to
        /// `poll`'s milliseconds — and one too long for the kernel's
        /// clock (`Duration::MAX`) is no timeout at all.
        pub(crate) fn wait(&mut self, timeout: Duration) -> io::Result<()> {
            for slot in &mut self.fds {
                slot.revents = 0;
            }
            let ts = c_long::try_from(timeout.as_secs())
                .ok()
                .map(|sec| Timespec {
                    sec,
                    nsec: c_long::from(timeout.subsec_nanos()),
                });
            // SAFETY: the pointer and count describe the live exclusive
            // `fds` vector; `ts` outlives the call, and a null timeout
            // or signal mask is allowed.
            let rc = unsafe {
                ppoll(
                    self.fds.as_mut_ptr(),
                    self.fds.len() as c_ulong,
                    ts.as_ref().map_or(std::ptr::null(), std::ptr::from_ref),
                    std::ptr::null(),
                )
            };
            if rc < 0 {
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            }
            Ok(())
        }

        /// Whether the last [`wait`](Self::wait) flagged `slot`:
        /// readable, or in an error state the next receive will return.
        pub(crate) fn ready(&self, slot: usize) -> bool {
            self.fds[slot].revents != 0
        }
    }

    /// A counter descriptor that stays readable from the first
    /// [`signal`](Self::signal) until [`drain`](Self::drain): the wake
    /// source of a [`PollSet`] wait.
    pub(crate) struct EventFd(File);

    impl EventFd {
        pub(crate) fn new() -> io::Result<Self> {
            // SAFETY: `eventfd` takes no pointers.
            let fd = owned(unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) })?;
            Ok(EventFd(File::from(fd)))
        }

        pub(crate) fn signal(&self) {
            // Fails only with the counter at `u64::MAX - 1`, and then
            // the descriptor is readable already.
            let _ = (&self.0).write(&1u64.to_ne_bytes());
        }

        pub(crate) fn drain(&self) {
            // `WouldBlock` means nobody signalled: nothing to clear.
            let _ = (&self.0).read(&mut [0u8; 8]);
        }
    }

    impl AsRawFd for EventFd {
        fn as_raw_fd(&self) -> RawFd {
            self.0.as_raw_fd()
        }
    }
}

#[cfg(not(all(
    target_os = "linux",
    not(any(
        target_arch = "mips",
        target_arch = "mips64",
        target_arch = "sparc",
        target_arch = "sparc64"
    ))
)))]
mod imp {
    use std::io;
    use std::net::{SocketAddrV4, UdpSocket};
    use std::time::Duration;

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "the UDP transport needs Linux (ppoll, eventfd); use the hub transport",
        ))
    }

    pub(crate) fn bind_reuse(_port: u16) -> io::Result<UdpSocket> {
        unsupported()
    }

    pub(crate) fn try_recv_from(
        _sock: &UdpSocket,
        _buf: &mut [u8],
    ) -> io::Result<Option<(usize, SocketAddrV4)>> {
        unsupported()
    }

    pub(crate) struct PollSet;

    impl PollSet {
        pub(crate) fn new() -> Self {
            PollSet
        }
        pub(crate) fn push<T>(&mut self, _fd: &T) {}
        pub(crate) fn wait(&mut self, _timeout: Duration) -> io::Result<()> {
            unsupported()
        }
        pub(crate) fn ready(&self, _slot: usize) -> bool {
            false
        }
    }

    /// Never constructed: `new` is where `UdpTransport::bind` fails.
    pub(crate) struct EventFd;

    impl EventFd {
        pub(crate) fn new() -> io::Result<Self> {
            unsupported()
        }
        pub(crate) fn signal(&self) {}
        pub(crate) fn drain(&self) {}
    }
}

pub(crate) use imp::{bind_reuse, try_recv_from, EventFd, PollSet};
