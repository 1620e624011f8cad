//! Ledger membership: CA-certified participants and their roles.
//!
//! "Ledger members are registered and authenticated using their public
//! keys" (§II-C); the threat model assumes each participant's key is
//! CA-certified (§II-B). The registry validates certificates at
//! registration time and answers the role queries the mutation
//! prerequisites need (DBA for purge/occult, regulator for occult).

use crate::types::TxRequest;
use crate::LedgerError;
use ledgerdb_crypto::ca::{Certificate, Role};
use ledgerdb_crypto::keys::PublicKey;
use std::collections::HashMap;

/// A registered ledger member.
#[derive(Clone, Debug)]
pub struct Member {
    pub certificate: Certificate,
}

impl Member {
    pub fn name(&self) -> &str {
        &self.certificate.subject
    }

    pub fn role(&self) -> Role {
        self.certificate.role
    }

    pub fn public_key(&self) -> &PublicKey {
        &self.certificate.public_key
    }
}

/// The member registry of one ledger.
#[derive(Clone)]
pub struct MemberRegistry {
    ca_key: PublicKey,
    by_key: HashMap<[u8; 64], Member>,
}

impl MemberRegistry {
    /// Create a registry trusting certificates issued under `ca_key`.
    pub fn new(ca_key: PublicKey) -> Self {
        MemberRegistry { ca_key, by_key: HashMap::new() }
    }

    /// Register a member; the certificate must verify against the CA.
    pub fn register(&mut self, certificate: Certificate) -> Result<(), LedgerError> {
        if !certificate.verify(&self.ca_key) {
            return Err(LedgerError::UnknownMember);
        }
        self.by_key
            .insert(certificate.public_key.to_bytes(), Member { certificate });
        Ok(())
    }

    /// Look up a member by public key.
    pub fn member(&self, pk: &PublicKey) -> Option<&Member> {
        self.by_key.get(&pk.to_bytes())
    }

    /// Is `pk` registered?
    pub fn is_registered(&self, pk: &PublicKey) -> bool {
        self.by_key.contains_key(&pk.to_bytes())
    }

    /// Admission of a client transaction: the submitter is a member and
    /// π_c verifies. Read-only, so a proxy or service tier runs it off
    /// the write lock before a commit path that skips re-verifying.
    pub fn admit(&self, request: &TxRequest) -> Result<(), LedgerError> {
        if !self.is_registered(&request.client_pk) {
            return Err(LedgerError::UnknownMember);
        }
        if !request.verify_signature() {
            return Err(LedgerError::BadClientSignature);
        }
        Ok(())
    }

    /// Public keys of every member holding `role`.
    pub fn keys_with_role(&self, role: Role) -> Vec<PublicKey> {
        self.by_key
            .values()
            .filter(|m| m.role() == role)
            .map(|m| *m.public_key())
            .collect()
    }

    /// Number of registered members.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ledgerdb_crypto::ca::CertificateAuthority;
    use ledgerdb_crypto::keys::KeyPair;

    fn setup() -> (CertificateAuthority, MemberRegistry) {
        let ca = CertificateAuthority::from_seed(b"ca");
        let registry = MemberRegistry::new(*ca.public_key());
        (ca, registry)
    }

    #[test]
    fn register_and_lookup() {
        let (ca, mut reg) = setup();
        let alice = KeyPair::from_seed(b"alice");
        reg.register(ca.issue("alice", Role::User, alice.public())).unwrap();
        assert!(reg.is_registered(alice.public()));
        assert_eq!(reg.member(alice.public()).unwrap().name(), "alice");
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn rogue_certificate_rejected() {
        let (_, mut reg) = setup();
        let rogue_ca = CertificateAuthority::from_seed(b"rogue");
        let eve = KeyPair::from_seed(b"eve");
        let cert = rogue_ca.issue("eve", Role::Dba, eve.public());
        assert!(matches!(reg.register(cert), Err(LedgerError::UnknownMember)));
        assert!(!reg.is_registered(eve.public()));
    }

    #[test]
    fn role_queries() {
        let (ca, mut reg) = setup();
        let dba = KeyPair::from_seed(b"dba");
        let regr = KeyPair::from_seed(b"regulator");
        let user = KeyPair::from_seed(b"user");
        reg.register(ca.issue("dba", Role::Dba, dba.public())).unwrap();
        reg.register(ca.issue("reg", Role::Regulator, regr.public())).unwrap();
        reg.register(ca.issue("u", Role::User, user.public())).unwrap();
        assert_eq!(reg.keys_with_role(Role::Dba), vec![*dba.public()]);
        assert_eq!(reg.keys_with_role(Role::Regulator), vec![*regr.public()]);
        assert_eq!(reg.keys_with_role(Role::User).len(), 1);
    }
}
