//! The `lightyear serve` wire protocol: a versioned request/response
//! envelope around the typed calls in [`ApiCall`].
//!
//! Every request is `POST /api/v1` with an [`ApiRequest`] JSON body;
//! every answer is an [`ApiResponse`]. Both carry `api_version`
//! explicitly: a request with a version this build does not speak is
//! rejected whole with a typed error — never half-interpreted.

use serde::{build_value, Serialize, Sink};
use serde_json::Value;

/// The protocol version this build speaks. Bumped on any breaking
/// change to the envelope, the calls, or the report schema.
pub const API_VERSION: u64 = 1;

/// One named configuration file, shipped inline.
#[derive(Clone, Debug, PartialEq)]
pub struct ConfigFile {
    /// File name (router hostname by convention; no path separators).
    pub name: String,
    /// The configuration text.
    pub text: String,
}

impl Serialize for ConfigFile {
    fn to_value(&self) -> Value {
        build_value(self)
    }

    fn stream<S: Sink>(&self, out: &mut S) {
        out.begin_object();
        out.field("name", &self.name);
        out.field("text", &self.text);
        out.end_object();
    }
}

impl ConfigFile {
    fn from_value(v: &Value) -> Option<ConfigFile> {
        Some(ConfigFile {
            name: v["name"].as_str()?.to_string(),
            text: v["text"].as_str()?.to_string(),
        })
    }
}

/// The typed calls of the daemon API.
#[derive(Clone, Debug, PartialEq)]
pub enum ApiCall {
    /// Establish (or replace) a tenant's configuration set and spec,
    /// and verify it as the tenant's baseline round.
    SubmitConfigs {
        /// The full configuration set.
        configs: Vec<ConfigFile>,
        /// The verification spec (the `spec.json` document, inline).
        spec: Value,
    },
    /// Replace the tenant's configuration set and re-verify only what
    /// the semantic diff dirtied.
    SubmitDelta {
        /// The full (edited) configuration set.
        configs: Vec<ConfigFile>,
    },
    /// Re-verify the current configuration set without a delta — a
    /// full round over warm engines.
    Verify,
    /// The `cores` arrays of the tenant's last round, optionally
    /// filtered to one property by name.
    QueryCores {
        /// Property-name filter.
        property: Option<String>,
    },
    /// The tenant's last round's full report.
    GetReport,
    /// Daemon health and per-tenant round counts. Tenant-independent.
    Health,
}

impl ApiCall {
    /// The call name used on the wire (and in the `serve.calls.<call>` counters).
    pub fn name(&self) -> &'static str {
        match self {
            ApiCall::SubmitConfigs { .. } => "SubmitConfigs",
            ApiCall::SubmitDelta { .. } => "SubmitDelta",
            ApiCall::Verify => "Verify",
            ApiCall::QueryCores { .. } => "QueryCores",
            ApiCall::GetReport => "GetReport",
            ApiCall::Health => "Health",
        }
    }

    fn from_value(v: &Value) -> Result<ApiCall, String> {
        if let Some(name) = v.as_str() {
            return match name {
                "Verify" => Ok(ApiCall::Verify),
                "GetReport" => Ok(ApiCall::GetReport),
                "Health" => Ok(ApiCall::Health),
                other => Err(format!("unknown call {other:?}")),
            };
        }
        let Value::Object(fields) = v else {
            return Err("call must be a string or a single-key object".to_string());
        };
        let [(name, body)] = fields.as_slice() else {
            return Err("call object must have exactly one key".to_string());
        };
        let configs = |body: &Value| -> Result<Vec<ConfigFile>, String> {
            body["configs"]
                .as_array()
                .ok_or_else(|| format!("{name}: configs must be an array"))?
                .iter()
                .map(|c| {
                    ConfigFile::from_value(c)
                        .ok_or_else(|| format!("{name}: each config needs name and text"))
                })
                .collect()
        };
        match name.as_str() {
            "SubmitConfigs" => {
                let spec = body.get("spec").cloned().unwrap_or(Value::Null);
                if spec.is_null() {
                    return Err("SubmitConfigs: spec is required".to_string());
                }
                Ok(ApiCall::SubmitConfigs {
                    configs: configs(body)?,
                    spec,
                })
            }
            "SubmitDelta" => Ok(ApiCall::SubmitDelta {
                configs: configs(body)?,
            }),
            "QueryCores" => Ok(ApiCall::QueryCores {
                property: body["property"].as_str().map(str::to_string),
            }),
            other => Err(format!("unknown call {other:?}")),
        }
    }
}

/// Externally tagged, as a derive would render it: a bare name for the
/// calls without a body, `{name: {fields}}` for the rest.
impl Serialize for ApiCall {
    fn to_value(&self) -> Value {
        build_value(self)
    }

    fn stream<S: Sink>(&self, out: &mut S) {
        fn tagged<S: Sink>(out: &mut S, name: &str, fields: impl FnOnce(&mut S)) {
            out.begin_object();
            out.key(name);
            out.begin_object();
            fields(out);
            out.end_object();
            out.end_object();
        }
        let name = self.name();
        match self {
            ApiCall::SubmitConfigs { configs, spec } => tagged(out, name, |out| {
                out.field("configs", configs);
                out.field("spec", spec);
            }),
            ApiCall::SubmitDelta { configs } => {
                tagged(out, name, |out| out.field("configs", configs))
            }
            ApiCall::QueryCores { property } => {
                tagged(out, name, |out| out.field("property", property))
            }
            ApiCall::Verify | ApiCall::GetReport | ApiCall::Health => out.str(name),
        }
    }
}

/// The request envelope: explicit version, tenant, typed call.
#[derive(Clone, Debug, PartialEq)]
pub struct ApiRequest {
    /// Must equal [`API_VERSION`].
    pub api_version: u64,
    /// Tenant name. Required for every call except `Health`.
    pub tenant: String,
    /// The typed call.
    pub call: ApiCall,
}

impl Serialize for ApiRequest {
    fn to_value(&self) -> Value {
        build_value(self)
    }

    fn stream<S: Sink>(&self, out: &mut S) {
        out.begin_object();
        out.field("api_version", &self.api_version);
        out.field("tenant", &self.tenant);
        out.field("call", &self.call);
        out.end_object();
    }
}

impl ApiRequest {
    /// A v1 request.
    pub fn new(tenant: impl Into<String>, call: ApiCall) -> ApiRequest {
        ApiRequest {
            api_version: API_VERSION,
            tenant: tenant.into(),
            call,
        }
    }

    /// Render the envelope.
    pub fn to_value(&self) -> Value {
        build_value(self)
    }

    /// Parse and validate an envelope. Version mismatches and malformed
    /// calls are typed errors — the daemon turns them into `ok: false`
    /// responses, never a half-interpreted request.
    pub fn from_value(v: &Value) -> Result<ApiRequest, String> {
        let version = v["api_version"].as_u64().ok_or("api_version is required")?;
        if version != API_VERSION {
            return Err(format!(
                "unsupported api_version {version} (this daemon speaks {API_VERSION})"
            ));
        }
        let call = ApiCall::from_value(v.get("call").ok_or("call is required")?)?;
        let tenant = v["tenant"].as_str().unwrap_or("").to_string();
        if tenant.is_empty() && call != ApiCall::Health {
            return Err(format!("{}: tenant is required", call.name()));
        }
        if tenant.contains(['/', '\\', '.']) {
            // Tenant names become cache-directory names.
            return Err(format!("invalid tenant name {tenant:?}"));
        }
        Ok(ApiRequest {
            api_version: version,
            tenant,
            call,
        })
    }

    /// Parse an envelope from JSON text.
    pub fn from_json(text: &str) -> Result<ApiRequest, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| format!("bad JSON: {e}"))?;
        ApiRequest::from_value(&v)
    }
}

/// The response envelope.
#[derive(Clone, Debug, PartialEq)]
pub struct ApiResponse {
    /// Always [`API_VERSION`] for this build.
    pub api_version: u64,
    /// Whether the call succeeded.
    pub ok: bool,
    /// The error message when `ok` is false.
    pub error: Option<String>,
    /// The call's result document (`Null` on error).
    pub result: Value,
}

impl Serialize for ApiResponse {
    fn to_value(&self) -> Value {
        build_value(self)
    }

    fn stream<S: Sink>(&self, out: &mut S) {
        out.begin_object();
        out.field("api_version", &self.api_version);
        out.field("ok", &self.ok);
        out.field("error", &self.error);
        out.field("result", &self.result);
        out.end_object();
    }
}

impl ApiResponse {
    /// A successful response.
    pub fn success(result: Value) -> ApiResponse {
        ApiResponse {
            api_version: API_VERSION,
            ok: true,
            error: None,
            result,
        }
    }

    /// A failed response.
    pub fn failure(error: impl Into<String>) -> ApiResponse {
        ApiResponse {
            api_version: API_VERSION,
            ok: false,
            error: Some(error.into()),
            result: Value::Null,
        }
    }

    /// Render the envelope.
    pub fn to_value(&self) -> Value {
        build_value(self)
    }

    /// Decode the [`ApiResponse::to_value`] form.
    pub fn from_value(v: &Value) -> Option<ApiResponse> {
        Some(ApiResponse {
            api_version: v["api_version"].as_u64()?,
            ok: v["ok"].as_bool()?,
            error: v["error"].as_str().map(str::to_string),
            result: v.get("result").cloned().unwrap_or(Value::Null),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips_every_call() {
        let calls = vec![
            ApiCall::SubmitConfigs {
                configs: vec![ConfigFile {
                    name: "R1".into(),
                    text: "hostname R1\n".into(),
                }],
                spec: Value::Object(vec![("safety".to_string(), Value::Array(vec![]))]),
            },
            ApiCall::SubmitDelta {
                configs: vec![ConfigFile {
                    name: "R1".into(),
                    text: "hostname R1\n".into(),
                }],
            },
            ApiCall::Verify,
            ApiCall::QueryCores {
                property: Some("p".into()),
            },
            ApiCall::QueryCores { property: None },
            ApiCall::GetReport,
        ];
        for call in calls {
            let req = ApiRequest::new("acme", call);
            let text = serde_json::to_string(&req.to_value()).unwrap();
            assert_eq!(ApiRequest::from_json(&text).unwrap(), req);
        }
        // Health needs no tenant.
        let req = ApiRequest::new("", ApiCall::Health);
        let text = serde_json::to_string(&req.to_value()).unwrap();
        assert_eq!(ApiRequest::from_json(&text).unwrap(), req);
    }

    #[test]
    fn version_mismatch_is_a_typed_error() {
        let mut v = ApiRequest::new("t", ApiCall::Verify).to_value();
        if let Value::Object(fields) = &mut v {
            fields[0].1 = Value::UInt(99);
        }
        let err = ApiRequest::from_value(&v).unwrap_err();
        assert!(err.contains("unsupported api_version 99"), "{err}");
        assert!(err.contains("speaks 1"), "{err}");
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        for (body, needle) in [
            (r#"{}"#, "api_version"),
            (r#"{"api_version":1}"#, "call is required"),
            (r#"{"api_version":1,"call":"Nope"}"#, "unknown call"),
            (r#"{"api_version":1,"call":"Verify"}"#, "tenant is required"),
            (
                r#"{"api_version":1,"tenant":"a/b","call":"Verify"}"#,
                "invalid tenant",
            ),
            (
                r#"{"api_version":1,"tenant":"t","call":{"SubmitConfigs":{"configs":[]}}}"#,
                "spec is required",
            ),
            (not_json(), "bad JSON"),
        ] {
            let err = ApiRequest::from_json(body).unwrap_err();
            assert!(err.contains(needle), "{body} -> {err}");
        }
    }

    fn not_json() -> &'static str {
        "{nope"
    }

    #[test]
    fn response_roundtrips() {
        let ok = ApiResponse::success(Value::Str("r".into()));
        assert_eq!(ApiResponse::from_value(&ok.to_value()), Some(ok));
        let err = ApiResponse::failure("boom");
        let text = serde_json::to_string(&err.to_value()).unwrap();
        assert_eq!(
            text,
            r#"{"api_version":1,"ok":false,"error":"boom","result":null}"#
        );
        assert_eq!(ApiResponse::from_value(&err.to_value()), Some(err));
    }
}
