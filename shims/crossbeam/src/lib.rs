//! Offline stand-in for the `crossbeam` crate.
//!
//! Only [`channel`] is provided, backed by `std::sync::mpsc`. The workspace
//! uses single-consumer unbounded channels with cloneable senders, which
//! std's mpsc covers exactly (mpsc `Sender` has been `Sync` since Rust 1.72,
//! so sharing `Arc<Vec<Sender<_>>>` across scoped threads works).

pub mod channel {
    use std::sync::mpsc;
    pub use std::sync::mpsc::{RecvError, SendError, TryRecvError};

    /// Sending half of an unbounded channel.
    pub struct Sender<T>(mpsc::Sender<T>);

    /// Receiving half of an unbounded channel.
    pub struct Receiver<T>(mpsc::Receiver<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.0.send(value)
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv()
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.0.try_recv()
        }

        pub fn iter(&self) -> mpsc::Iter<'_, T> {
            self.0.iter()
        }

        pub fn try_iter(&self) -> mpsc::TryIter<'_, T> {
            self.0.try_iter()
        }
    }

    /// Create an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender(tx), Receiver(rx))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn send_recv_across_threads() {
            let (tx, rx) = unbounded();
            let tx2 = tx.clone();
            std::thread::scope(|s| {
                s.spawn(move || tx.send(1u32).unwrap());
                s.spawn(move || tx2.send(2u32).unwrap());
                let mut got = vec![rx.recv().unwrap(), rx.recv().unwrap()];
                got.sort_unstable();
                assert_eq!(got, vec![1, 2]);
            });
        }

        #[test]
        fn disconnect_reported() {
            let (tx, rx) = unbounded::<u8>();
            drop(tx);
            assert!(rx.recv().is_err());
        }
    }
}
