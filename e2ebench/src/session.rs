//! Alex's session, two ways.
//!
//! The untraced run drives the real [`Client`]. The traced run makes
//! the same calls the client makes — `encrypt_query` / `append_tuple`,
//! `to_wire`, `Transport::call`, `from_wire`, `decrypt_result` — from
//! the benchmark itself, with a span around each. `tests::
//! traced_session_sends_the_clients_bytes` pins that both put the same
//! bytes on the wire.

use dbph_core::protocol::{ClientMessage, ServerResponse, WireTrapdoor};
use dbph_core::wire::{WireDecode as _, WireEncode as _};
use dbph_core::{
    Client, DatabasePh as _, EncryptedTable, FinalSwpPh, IncrementalPh as _, PhError, Transport,
};
use dbph_relation::{Query, Relation, Tuple};

use crate::trace::{Layer, Tracer};

/// One closed-loop client session.
pub trait Session {
    /// `select`, decrypted and false-positive filtered.
    fn select(&mut self, query: &Query) -> Result<Relation, PhError>;
    /// Inserts `rows` in one request (`insert` for one row,
    /// `insert_many` otherwise, as an application would).
    fn insert(&mut self, rows: &[Tuple]) -> Result<(), PhError>;
}

impl<T: Transport> Session for Client<T> {
    fn select(&mut self, query: &Query) -> Result<Relation, PhError> {
        Client::select(self, query)
    }

    fn insert(&mut self, rows: &[Tuple]) -> Result<(), PhError> {
        match rows {
            [row] => Client::insert(self, row),
            _ => self.insert_many(rows),
        }
    }
}

/// The client's steps, made by the benchmark, each in a span.
pub struct TracedSession<T> {
    ph: FinalSwpPh,
    transport: T,
    table: String,
    next_doc_id: u64,
    pub tracer: Tracer,
}

impl<T: Transport> TracedSession<T> {
    /// A session continuing a table whose next fresh document id is
    /// `next_doc_id` (the preload's row count).
    pub fn new(ph: FinalSwpPh, transport: T, next_doc_id: u64) -> Self {
        let table = ph.schema().name().to_string();
        TracedSession {
            ph,
            transport,
            table,
            next_doc_id,
            tracer: Tracer::new(),
        }
    }

    fn send(&mut self, msg: &ClientMessage) -> Result<ServerResponse, PhError> {
        let request = self.tracer.span(Layer::Encode, || msg.to_wire());
        let response = self
            .tracer
            .span(Layer::Call, || self.transport.call(&request))?;
        self.tracer
            .span(Layer::Decode, || ServerResponse::from_wire(&response))
    }

    fn select_inner(&mut self, query: &Query) -> Result<Relation, PhError> {
        let qct = self
            .tracer
            .span(Layer::EncryptQuery, || self.ph.encrypt_query(query))?;
        let msg = ClientMessage::Query {
            name: self.table.clone(),
            terms: qct.terms.iter().map(WireTrapdoor::from_trapdoor).collect(),
        };
        let result = match self.send(&msg)? {
            ServerResponse::Table(t) => t,
            ServerResponse::Error(e) => return Err(PhError::Protocol(e)),
            _ => return Err(PhError::Protocol("expected table response".into())),
        };
        self.tracer.span(Layer::DecryptResult, || {
            self.ph.decrypt_result(&result, query)
        })
    }

    fn insert_inner(&mut self, rows: &[Tuple]) -> Result<(), PhError> {
        let mut delta = EncryptedTable {
            params: *self.ph.params(),
            docs: Vec::with_capacity(rows.len()),
            next_doc_id: self.next_doc_id,
        };
        for row in rows {
            self.tracer
                .span(Layer::AppendTuple, || self.ph.append_tuple(&mut delta, row))?;
        }
        let next = delta.next_doc_id;
        let msg = match <[_; 1]>::try_from(delta.docs) {
            Ok([(doc_id, words)]) => ClientMessage::Append {
                name: self.table.clone(),
                doc_id,
                words,
            },
            Err(docs) => ClientMessage::AppendBatch {
                name: self.table.clone(),
                docs,
            },
        };
        match self.send(&msg)? {
            ServerResponse::Ok => {
                self.next_doc_id = next;
                Ok(())
            }
            ServerResponse::Error(e) => Err(PhError::Protocol(e)),
            _ => Err(PhError::Protocol("unexpected table response".into())),
        }
    }
}

impl<T: Transport> Session for TracedSession<T> {
    fn select(&mut self, query: &Query) -> Result<Relation, PhError> {
        self.tracer.begin_op();
        let out = self.select_inner(query);
        self.tracer.end_op();
        out
    }

    fn insert(&mut self, rows: &[Tuple]) -> Result<(), PhError> {
        self.tracer.begin_op();
        let out = self.insert_inner(rows);
        self.tracer.end_op();
        out
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use dbph_core::Server;

    use super::*;
    use crate::inputs::{generate, Op, Workload};

    /// An in-process server that keeps every request it answers.
    struct Recording {
        server: Server,
        requests: Mutex<Vec<Vec<u8>>>,
    }

    impl Transport for Recording {
        fn call(&self, request: &[u8]) -> Result<Vec<u8>, PhError> {
            self.requests
                .lock()
                .expect("no panics")
                .push(request.to_vec());
            Ok(self.server.handle(request))
        }
    }

    fn drive(session: &mut dyn Session, ops: &[Op]) -> Vec<Option<Relation>> {
        ops.iter()
            .map(|op| match op {
                Op::Select { query, .. } => Some(session.select(query).expect("select")),
                Op::Insert(rows) => {
                    session.insert(rows).expect("insert");
                    None
                }
            })
            .collect()
    }

    #[test]
    fn traced_session_sends_the_clients_bytes() {
        for workload in [Workload::PointRw, Workload::IngestReplicated] {
            let mut inputs = generate(workload, &workload.spec(), 5, 40);
            let small = Relation::from_tuples(
                inputs.relation.schema().clone(),
                inputs.relation.tuples()[..300].to_vec(),
            )
            .expect("subset");
            inputs.relation = small;
            let ph = || FinalSwpPh::new(inputs.relation.schema().clone(), &inputs.key).expect("ph");
            let recording = || Recording {
                server: Server::with_shards(2),
                requests: Mutex::new(Vec::new()),
            };

            let mut client = Client::new(ph(), recording());
            client.outsource(&inputs.relation).expect("outsource");
            let plain = drive(&mut client, &inputs.ops);

            let mirror = Arc::new(recording());
            let mut outsourcer = Client::new(ph(), Arc::clone(&mirror));
            outsourcer.outsource(&inputs.relation).expect("outsource");
            let rows = u64::try_from(inputs.relation.len()).expect("small");
            let mut traced = TracedSession::new(ph(), Arc::clone(&mirror), rows);
            let traced_out = drive(&mut traced, &inputs.ops);

            assert_eq!(plain, traced_out, "{}", workload.name());
            assert_eq!(
                *client.transport().requests.lock().expect("no panics"),
                *mirror.requests.lock().expect("no panics"),
                "{}",
                workload.name()
            );
        }
    }
}
